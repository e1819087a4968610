"""Characteristic breakdowns.

Breakdowns report, per category of a pupil or school characteristic, the
pupil count, share and mean pupil score for each measure, with a test of
mean = 0, the CR1 test of an intercept-only fit clustered on school (k = 1,
so (N-1)/(N-k) is 1 and (X'X)^-1 is 1/n_c):

    V = G_c/(G_c - 1) * (1/n_c^2) * sum_g ( sum_{i in g, cat c} (s_i - m_c) )^2

over the G_c schools present in the category. Each school's inner sum is
its category score sum minus m_c times its category count; the counts and
sums of every category and school come from one bincount per measure. The
means m_c come from one stable sort of the pupils by category per
breakdown: each category's scores are a contiguous slice, in cohort order.
Categories spanning fewer than two schools have their flag suppressed with
a footnote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .categories import FIELD, PUPIL_CHARACTERISTICS, SCHOOL_CHARACTERISTICS, Field, MeasureKind
from .cohort import ValidatedCohort
from .errors import AnalysisError
from .ols import Z95


@dataclass(frozen=True)
class BreakdownRow:
    category: str
    n_pupils: int
    n_schools: int
    percent: float
    means: dict[MeasureKind, float | None]
    significant: dict[MeasureKind, bool | None]


@dataclass(frozen=True)
class BreakdownTable:
    """Category means with clustered significance for one characteristic."""

    rows: list[BreakdownRow]
    footnotes: list[str] = field(default_factory=list)


def _field(characteristic: str, valid: tuple[str, ...], what: str) -> Field:
    if characteristic not in valid:
        raise AnalysisError(
            f"unknown {what} characteristic {characteristic!r}; valid: {', '.join(valid)}"
        )
    return FIELD[characteristic]


def _aligned_scores(
    cohort: ValidatedCohort, scores_by_measure: Mapping[MeasureKind, np.ndarray]
) -> dict[MeasureKind, np.ndarray]:
    """Each measure's pupil scores as a float array; one per pupil, in cohort order."""
    out: dict[MeasureKind, np.ndarray] = {}
    for kind, scores in scores_by_measure.items():
        values = np.asarray(scores, dtype=float)
        if values.shape != (cohort.n_pupils,):
            raise AnalysisError(
                f"{kind.code}: {values.size} pupil scores for {cohort.n_pupils} pupils"
            )
        if not np.isfinite(values).all():
            raise AnalysisError(f"{kind.code}: pupil scores must be finite")
        out[kind] = values
    return out


def _breakdown(
    cohort: ValidatedCohort,
    aligned: dict[MeasureKind, np.ndarray],
    universe: list[tuple[int, str]],
    codes: np.ndarray,
    by_school: bool,
) -> BreakdownTable:
    # one bincount pass per measure over key (code + 1) * G + school, so row
    # code + 1 of each table holds a category's per-school counts and sums
    g = cohort.n_schools
    key = (codes.astype(np.intp) + 1) * g + cohort.school_index
    size = (max(code for code, _ in universe) + 2) * g
    counts = np.bincount(key, minlength=size).reshape(-1, g)
    sums = {
        kind: np.bincount(key, weights=scores, minlength=size).reshape(-1, g)
        for kind, scores in aligned.items()
    }
    # one stable grouping: category c's pupils are the slice bounds[c + 1] to
    # bounds[c + 2] of order, in cohort order, so each mean adds the scores
    # of scores[codes == c] in the same order
    order = np.argsort(codes, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(counts.sum(axis=1))))
    grouped = {kind: scores[order] for kind, scores in aligned.items()}
    rows: list[BreakdownRow] = []
    footnotes: list[str] = []
    for code, cat in universe:
        present = np.flatnonzero(counts[code + 1])  # the category's schools
        n_cat = int(counts[code + 1].sum())
        n_sch = int(present.size)
        if by_school:
            percent = 100.0 * n_sch / g
        else:
            percent = 100.0 * n_cat / cohort.n_pupils
        means: dict[MeasureKind, float | None] = {}
        flags: dict[MeasureKind, bool | None] = {}
        for kind, scores in grouped.items():
            mean = float(scores[bounds[code + 1] : bounds[code + 2]].mean()) if n_cat else None
            means[kind] = mean
            flags[kind] = None
            if n_sch >= 2:
                # each school's sum of deviations from the category mean
                dev = sums[kind][code + 1, present] - mean * counts[code + 1, present]
                v = n_sch / (n_sch - 1) * float(dev @ dev) / n_cat**2
                flags[kind] = v > 0.0 and abs(mean) / v**0.5 > Z95
        if n_sch == 1:
            footnotes.append(
                f"{cat}: significance suppressed (category spans fewer than 2 schools)"
            )
        rows.append(
            BreakdownRow(
                category=cat,
                n_pupils=n_cat,
                n_schools=n_sch,
                percent=percent,
                means=means,
                significant=flags,
            )
        )
    return BreakdownTable(rows=rows, footnotes=footnotes)


def pupil_breakdown(
    cohort: ValidatedCohort,
    scores_by_measure: Mapping[MeasureKind, np.ndarray],
    characteristic: str,
) -> BreakdownTable:
    """Category means per measure for one pupil characteristic.

    ``scores_by_measure`` maps each measure to its pupil scores in cohort
    order (``MeasureResult.scores``). Rows follow the category universe
    order; percents are pupil shares.
    """
    aligned = _aligned_scores(cohort, scores_by_measure)
    f = _field(characteristic, PUPIL_CHARACTERISTICS, "pupil")
    codes = cohort.pupil_table[characteristic]
    universe = list(enumerate(f.levels))
    if f.optional and (codes < 0).any():
        universe.append((-1, "(missing)"))
    return _breakdown(cohort, aligned, universe, codes, by_school=False)


def school_breakdown(
    cohort: ValidatedCohort,
    scores_by_measure: Mapping[MeasureKind, np.ndarray],
    characteristic: str,
) -> BreakdownTable:
    """Category means per measure for one school characteristic.

    Categories come from each pupil's school; counts are reported in both
    schools and pupils and percents are school shares. Rows are sorted by
    the raw attainment mean, highest first, when that measure is present.
    """
    aligned = _aligned_scores(cohort, scores_by_measure)
    f = _field(characteristic, SCHOOL_CHARACTERISTICS, "school")
    codes = cohort.school_table[characteristic][cohort.school_index]
    table = _breakdown(cohort, aligned, list(enumerate(f.levels)), codes, by_school=True)
    if MeasureKind.ATTAINMENT8 in aligned:
        a8 = MeasureKind.ATTAINMENT8
        # highest first, empty categories last; the sort is stable, so ties
        # keep universe order
        table.rows.sort(key=lambda row: np.inf if row.means[a8] is None else -row.means[a8])
    return table
