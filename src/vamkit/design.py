"""Dummy-coded design matrices for the four measure specifications.

Every design has a leading all-ones "constant" column. Each categorical
covariate contributes (levels - 1) indicator columns against a fixed
reference category, which has no column. Category levels absent from a
cohort still get their (all-zero) column so that coefficient labels are
stable across cohorts; the least-squares rank guard prunes them.

Covariate block order: prior attainment group, month of birth, gender,
ethnicity, first language, SEN, FSM, neighbourhood deprivation decile.

A design keeps each block's integer code column, not the N x k indicator
array. X'X is then a set of cross-tabs of counts (exact in integers), X'y
and the per-cluster sums X_g'e are bincounts, and X beta gathers one
coefficient per block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .categories import PUPIL_FIELDS, Field, ModelSpec
from .categories import MeasureKind  # noqa: F401  (its old import path)
from .cohort import ValidatedCohort
from .errors import DesignError, id_list


# Rows per run of sequential additions in _Block.sums.
_RUN = 256


@dataclass(frozen=True)
class _Block:
    """One dummy block: each row's level code and the level -> column map.

    Level ``coded[i]`` has design column ``columns[i]``; a level not listed
    (a covariate's reference) has none. The constant is the block with one
    level, code 0 on every row.
    """

    codes: np.ndarray
    levels: int
    coded: np.ndarray
    columns: np.ndarray

    def bins(self, major: np.ndarray) -> np.ndarray:
        """Each row's flat bin in a (major index, own level) table."""
        keys = major.astype(np.intp)
        keys *= self.levels
        keys += self.codes
        return keys

    def sums(self, weights: np.ndarray) -> np.ndarray:
        """Sum of ``weights`` over each level's rows.

        Rows are added in order within runs of _RUN rows and the run sums
        pairwise, so the rounding error grows with _RUN + log2(runs), not
        with the level's row count. A plain bincount's error grows with the
        cohort, and the normal equations recover the reference level's sum
        as the total minus the other levels: at national size that is about
        1e-9 points of error in the progress coefficients, against 2e-12
        this way.
        """
        runs = -(-self.codes.size // _RUN)
        # key = code * runs + row // _RUN, built in place: whole runs as a
        # (run, row) view, then the last, partial run
        keys = self.codes.astype(np.intp)
        keys *= runs
        whole = keys.size // _RUN
        keys[: whole * _RUN].reshape(whole, _RUN)[...] += np.arange(whole)[:, None]
        keys[whole * _RUN :] += whole
        table = np.bincount(keys, weights=weights, minlength=self.levels * runs)
        return table.reshape(self.levels, runs).sum(axis=1)


class DesignMatrix:
    """N x k dummy design with stable column labels, held as code columns.

    Each dummy block keeps one integer code column, never the N x k
    indicator array. Every statistic a least-squares fit and its clustered
    covariance need (``gram``, ``xty``, ``predict`` and ``cluster_sums``)
    comes from counts and bincounts over the codes; ``values`` builds the
    indicator array only when it is read.
    """

    def __init__(self, column_labels: tuple[str, ...], blocks: tuple[_Block, ...]):
        self.column_labels = tuple(column_labels)
        self._blocks = blocks

    @property
    def n(self) -> int:
        return self._blocks[0].codes.size

    @property
    def k(self) -> int:
        return len(self.column_labels)

    @property
    def values(self) -> np.ndarray:
        """The N x k indicator array, built anew on each read."""
        out = np.zeros((self.n, self.k))
        for b in self._blocks:
            out[:, b.columns] = b.codes[:, None] == b.coded
        return out

    def gram(self) -> np.ndarray:
        """X'X: one cross-tab of counts per pair of blocks."""
        out = np.zeros((self.k, self.k))
        for i, a in enumerate(self._blocks):
            for b in self._blocks[i:]:
                counts = np.bincount(b.bins(a.codes), minlength=a.levels * b.levels)
                counts = counts.reshape(a.levels, b.levels)[np.ix_(a.coded, b.coded)]
                out[np.ix_(a.columns, b.columns)] = counts
                out[np.ix_(b.columns, a.columns)] = counts.T
        return out

    def xty(self, y: np.ndarray) -> np.ndarray:
        """X'y: for each column, the sum of y over the rows where it is 1."""
        out = np.zeros(self.k)
        for b in self._blocks:
            out[b.columns] = b.sums(y)[b.coded]
        return out

    def predict(self, beta: np.ndarray) -> np.ndarray:
        """X beta, given a coefficient for every design column."""
        out = np.zeros(self.n)
        for b in self._blocks:
            per_level = np.zeros(b.levels)
            per_level[b.coded] = beta[b.columns]
            out += per_level[b.codes]
        return out

    def cluster_sums(self, e: np.ndarray, cluster: np.ndarray, n_clusters: int) -> np.ndarray:
        """G x k sums X_g'e_g, where ``cluster`` numbers each row's cluster 0..G-1."""
        out = np.zeros((n_clusters, self.k))
        for b in self._blocks:
            sums = np.bincount(b.bins(cluster), weights=e, minlength=n_clusters * b.levels)
            out[:, b.columns] = sums.reshape(n_clusters, b.levels)[:, b.coded]
        return out


_PRIOR = "ks2_group"
_COVARIATES = tuple(f for f in PUPIL_FIELDS if f.reference is not None)


def _fields(spec: ModelSpec) -> tuple[Field, ...]:
    """The covariate fields a spec adjusts for, in design-block order."""
    return tuple(
        f
        for f in _COVARIATES
        if (spec.include_prior_attainment if f.name == _PRIOR else spec.include_background)
    )


def design_labels(spec: ModelSpec) -> tuple[str, ...]:
    """Deterministic column labels for a model spec (cohort-independent)."""
    return ("constant",) + tuple(label for f in _fields(spec) for label in f.design_labels)


def build_design_matrix(cohort: ValidatedCohort, spec: ModelSpec) -> DesignMatrix:
    """Build the dummy design for a cohort under a model spec.

    Fatal if the spec adjusts for prior attainment and any pupil lacks a
    ks2_group. Category levels with no pupils produce all-zero columns and a
    warning; they are pruned later by the estimation rank guard.
    """
    pupils = cohort.pupil_table
    fields = _fields(spec)
    if spec.include_prior_attainment:
        missing = pupils["pupil_id"][pupils[_PRIOR] < 0].tolist()
        if missing:
            raise DesignError(
                "model adjusts for prior attainment but ks2_group is missing "
                f"for pupils: {id_list(missing)}"
            )

    n = cohort.n_pupils
    constant = _Block(np.zeros(n, dtype=np.int8), 1, np.array([0]), np.array([0]))
    design_blocks = [constant]
    empty: list[str] = []
    start = 1
    for f in fields:
        codes = pupils[f.name]
        coded = np.array(f.design_codes)
        design_blocks.append(
            _Block(codes, len(f.levels), coded, np.arange(start, start + coded.size))
        )
        counts = np.bincount(codes, minlength=len(f.levels))
        empty += [lab for c, lab in zip(f.design_codes, f.design_labels) if not counts[c]]
        start += coded.size

    if empty:
        warnings.warn(
            f"category level(s) absent from cohort (all-zero columns): {', '.join(empty)}",
            stacklevel=2,
        )
    return DesignMatrix(design_labels(spec), tuple(design_blocks))

