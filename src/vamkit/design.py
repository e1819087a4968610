"""Dummy-coded design matrices for the four measure specifications.

Every design has a leading all-ones "constant" column. Each categorical
covariate contributes (levels - 1) indicator columns against a fixed
reference category; the references are carried as metadata. Category levels
absent from a cohort still get their (all-zero) column so that coefficient
labels are stable across cohorts; the least-squares rank guard prunes them.

Covariate block order: prior attainment group, month of birth, gender,
ethnicity, first language, SEN, FSM, neighbourhood deprivation decile.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .categories import FIELD, PUPIL_FIELDS, Field
from .cohort import ValidatedCohort
from .errors import DesignError


@dataclass(frozen=True)
class ModelSpec:
    """Which covariate blocks a model adjusts for."""

    include_prior_attainment: bool
    include_background: bool


class MeasureKind(enum.Enum):
    """The four school performance measures; values are the CLI short codes."""

    ATTAINMENT8 = "a8"
    ADJUSTED_ATTAINMENT8 = "aa8"
    PROGRESS8 = "p8"
    ADJUSTED_PROGRESS8 = "ap8"

    @property
    def model_spec(self) -> ModelSpec:
        prior = self in (MeasureKind.PROGRESS8, MeasureKind.ADJUSTED_PROGRESS8)
        background = self in (MeasureKind.ADJUSTED_ATTAINMENT8, MeasureKind.ADJUSTED_PROGRESS8)
        return ModelSpec(include_prior_attainment=prior, include_background=background)

    @property
    def code(self) -> str:
        return self.value


@dataclass(frozen=True)
class DesignMatrix:
    """N x k dummy design with stable column labels and reference metadata."""

    values: np.ndarray
    column_labels: tuple[str, ...]
    reference_categories: dict[str, str]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


_PRIOR = "ks2_group"
_COVARIATES = tuple(f for f in PUPIL_FIELDS if f.reference is not None)


def _blocks(spec: ModelSpec) -> tuple[Field, ...]:
    """The covariate fields a spec adjusts for, in design-block order."""
    return tuple(
        f
        for f in _COVARIATES
        if (spec.include_prior_attainment if f.name == _PRIOR else spec.include_background)
    )


def design_labels(spec: ModelSpec) -> tuple[str, ...]:
    """Deterministic column labels for a model spec (cohort-independent)."""
    return ("constant",) + tuple(label for f in _blocks(spec) for label in f.design_labels)


def build_design_matrix(cohort: ValidatedCohort, spec: ModelSpec) -> DesignMatrix:
    """Build the dummy design for a cohort under a model spec.

    Fatal if the spec adjusts for prior attainment and any pupil lacks a
    ks2_group. Category levels with no pupils produce all-zero columns and a
    warning; they are pruned later by the estimation rank guard.
    """
    pupils = cohort.pupil_table
    blocks = _blocks(spec)
    if spec.include_prior_attainment:
        missing = pupils["pupil_id"][pupils[_PRIOR] < 0].tolist()
        if missing:
            shown = ", ".join(missing[:20])
            more = "" if len(missing) <= 20 else f" (and {len(missing) - 20} more)"
            raise DesignError(
                "model adjusts for prior attainment but ks2_group is missing "
                f"for pupils: {shown}{more}"
            )

    labels = design_labels(spec)
    values = np.zeros((cohort.n_pupils, len(labels)))
    values[:, 0] = 1.0
    rows = np.arange(cohort.n_pupils)
    empty: list[str] = []
    start = 1
    for f in blocks:
        codes = pupils[f.name]
        # column of each code; the reference level maps onto the constant,
        # which already holds 1.0
        column = np.zeros(len(f.levels), dtype=np.intp)
        column[list(f.design_codes)] = np.arange(start, start + len(f.design_codes))
        values[rows, column[codes]] = 1.0
        counts = np.bincount(codes, minlength=len(f.levels))
        empty += [lab for c, lab in zip(f.design_codes, f.design_labels) if not counts[c]]
        start += len(f.design_codes)

    if empty:
        warnings.warn(
            f"category level(s) absent from cohort (all-zero columns): {', '.join(empty)}",
            stacklevel=2,
        )
    refs = {f.name: f.spellings[f.levels.index(f.reference)] for f in blocks}
    return DesignMatrix(values=values, column_labels=labels, reference_categories=refs)


def band_ks2(fine_scores, n_groups: int = len(FIELD[_PRIOR].levels)) -> list[int]:
    """Assign prior-attainment groups 1..n_groups by empirical quantile cut.

    Cut points are the j/n_groups empirical quantiles; a score lands in
    group 1 + (number of cut points it strictly exceeds). Equal scores get
    equal groups, and the assignment is monotone nondecreasing in score.
    Degenerate input (all scores identical) puts everyone in group 1 with a
    warning. Intended for synthetic or exploratory data; real extracts
    should arrive pre-banded.
    """
    scores = np.asarray(list(fine_scores), dtype=float)
    if scores.size == 0:
        raise DesignError("band_ks2 requires at least one score")
    if not np.all(np.isfinite(scores)):
        raise DesignError("band_ks2 requires finite scores")
    if n_groups < 2:
        raise DesignError("band_ks2 requires n_groups >= 2")

    if np.all(scores == scores[0]):
        warnings.warn("all scores identical; assigning every pupil to group 1", stacklevel=2)
        return [1] * scores.size

    cuts = np.quantile(scores, [j / n_groups for j in range(1, n_groups)])
    groups = 1 + np.sum(scores[:, None] > cuts[None, :], axis=1)
    return [int(g) for g in groups]
