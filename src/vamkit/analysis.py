"""Characteristic breakdowns.

Breakdowns report, per category of a pupil or school characteristic, the
pupil count, share and mean pupil score for each measure, with a test of
mean = 0, the CR1 test of an intercept-only fit clustered on school (k = 1,
so (N-1)/(N-k) is 1 and (X'X)^-1 is 1/n_c):

    V = G_c/(G_c - 1) * (1/n_c^2) * sum_g ( sum_{i in g, cat c} (s_i - m_c) )^2

over the G_c schools present in the category. Categories spanning fewer
than two schools have their flag suppressed with a footnote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .categories import FIELD, PUPIL_CHARACTERISTICS, SCHOOL_CHARACTERISTICS, Field, MeasureKind
from .cohort import ValidatedCohort
from .compare import (  # noqa: F401  (their old import path)
    ComparisonReport,
    QuadrantCounts,
    compare_measures,
    correlate,
    quadrant_classify,
    rank_movement,
)
from .design import DesignMatrix
from .errors import AnalysisError
from .ols import cluster_robust_cov, coefficient_table, fit_ols


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

    grouping: str
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
        out[kind] = values
    return out


def _mean_flag(values: np.ndarray, cluster: np.ndarray) -> bool:
    """Whether mean(values) != 0 at 5%: the intercept's CR1 test, clustered on ``cluster``."""
    design = DesignMatrix(values=np.ones((values.size, 1)), column_labels=("mean",))
    fit = fit_ols(design, values)
    return coefficient_table(fit, cluster_robust_cov(fit, design, cluster))[0].significant


def _breakdown(
    grouping: str,
    universe: list[tuple[int, str]],
    codes: np.ndarray,
    school_index: np.ndarray,
    aligned: dict[MeasureKind, np.ndarray],
    n_pupils: int,
    percent_base: str,
    n_schools_total: int,
) -> BreakdownTable:
    rows: list[BreakdownRow] = []
    footnotes: list[str] = []
    for code, cat in universe:
        mask = codes == code
        n_cat = int(mask.sum())
        # the category's schools, numbered densely in school_id order
        schools_in_cat, cluster = np.unique(school_index[mask], return_inverse=True)
        n_sch = int(schools_in_cat.size)
        if percent_base == "schools":
            percent = 100.0 * n_sch / n_schools_total
        else:
            percent = 100.0 * n_cat / n_pupils
        means: dict[MeasureKind, float | None] = {}
        flags: dict[MeasureKind, bool | None] = {}
        for kind, scores in aligned.items():
            values = scores[mask]
            means[kind] = float(values.mean()) if n_cat else None
            flags[kind] = _mean_flag(values, cluster) if n_sch >= 2 else None
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
    return BreakdownTable(grouping=grouping, rows=rows, footnotes=footnotes)


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
    return _breakdown(
        characteristic,
        universe,
        codes,
        cohort.school_index,
        aligned,
        cohort.n_pupils,
        "pupils",
        cohort.n_schools,
    )


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
    table = _breakdown(
        characteristic,
        list(enumerate(f.levels)),
        cohort.school_table[characteristic][cohort.school_index],
        cohort.school_index,
        aligned,
        cohort.n_pupils,
        "schools",
        cohort.n_schools,
    )
    if MeasureKind.ATTAINMENT8 in aligned:
        a8 = MeasureKind.ATTAINMENT8
        order = {row.category: i for i, row in enumerate(table.rows)}
        table.rows.sort(
            key=lambda row: (
                -(row.means[a8] if row.means[a8] is not None else -np.inf),
                order[row.category],
            )
        )
    return table
