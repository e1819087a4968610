"""Characteristic breakdowns, as the columns of ``breakdown_<by>.csv``.

Breakdowns report, per category of a pupil or school characteristic, the
pupil count, share and mean pupil score for each measure, with a test of
mean = 0, the CR1 test of an intercept-only fit clustered on school (k = 1,
so (N-1)/(N-k) is 1 and (X'X)^-1 is 1/n_c):

    V = G_c/(G_c - 1) * (1/n_c^2) * sum_g ( sum_{i in g, cat c} (s_i - m_c) )^2

over the G_c schools present in the category. Each school's inner sum is
its category score sum minus m_c times its category count; the counts and
sums of every category and school come from one bincount per measure. The
means m_c come from one row index per category, its pupils in cohort order:
each measure's category scores are gathered through it, one measure at a
time, so a breakdown holds no sorted copy of any measure's scores.
Categories spanning fewer than two schools have their flag suppressed with
a footnote.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .categories import FIELD, PUPIL_CHARACTERISTICS, SCHOOL_CHARACTERISTICS, MeasureKind
from .cohort import ValidatedCohort
from .errors import AnalysisError
from .ols import Z95


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


def breakdown(
    cohort: ValidatedCohort,
    scores_by_measure: Mapping[MeasureKind, np.ndarray],
    characteristic: str,
) -> tuple[dict[str, list], list[str]]:
    """Category means per measure for one pupil or school characteristic.

    ``scores_by_measure`` maps each measure to its pupil scores in cohort
    order (``MeasureResult.scores``). Returns ``(columns, footnotes)``: the
    columns of ``breakdown_<by>.csv`` as lists, in file order (``category``,
    ``n_pupils``, ``n_schools``, ``percent``, then ``mean_<code>`` and
    ``significant_<code>`` of each measure in ``scores_by_measure`` order,
    None for an empty category's mean and a suppressed flag), and its
    footnote lines.

    A pupil characteristic's rows follow its category universe, with a
    ``(missing)`` row last when an optional field has empty cells, and its
    percents are pupil shares. A school characteristic's categories come
    from each pupil's school: its percents are school shares and its rows
    are sorted by the raw attainment mean, highest first, when that measure
    is present.
    """
    aligned = _aligned_scores(cohort, scores_by_measure)
    by_school = characteristic in SCHOOL_CHARACTERISTICS
    if by_school:
        codes = cohort.school_table[characteristic][cohort.school_index]
    elif characteristic in PUPIL_CHARACTERISTICS:
        codes = cohort.pupil_table[characteristic]
    else:
        valid = ", ".join(PUPIL_CHARACTERISTICS + SCHOOL_CHARACTERISTICS)
        raise AnalysisError(f"unknown characteristic {characteristic!r}; valid: {valid}")
    f = FIELD[characteristic]
    universe = list(enumerate(f.levels))
    if f.optional and (codes < 0).any():
        universe.append((-1, "(missing)"))
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
    del key
    names = ["category", "n_pupils", "n_schools", "percent"]
    names += [f"{stat}_{kind.code}" for kind in aligned for stat in ("mean", "significant")]
    columns: dict[str, list] = {name: [] for name in names}
    footnotes: list[str] = []
    for code, cat in universe:
        # the category's pupils, in cohort order, so each mean adds the
        # scores of scores[codes == code] in that order
        members = np.flatnonzero(codes == code)
        present = np.flatnonzero(counts[code + 1])  # the category's schools
        n_cat = int(counts[code + 1].sum())
        n_sch = int(present.size)
        if by_school:
            percent = 100.0 * n_sch / g
        else:
            percent = 100.0 * n_cat / cohort.n_pupils
        row = [cat, n_cat, n_sch, percent]
        for kind, scores in aligned.items():
            mean = float(scores[members].mean()) if n_cat else None
            flag = None
            if n_sch >= 2:
                # each school's sum of deviations from the category mean
                dev = sums[kind][code + 1, present] - mean * counts[code + 1, present]
                v = n_sch / (n_sch - 1) * float(dev @ dev) / n_cat**2
                flag = v > 0.0 and abs(mean) / v**0.5 > Z95
            row += [mean, flag]
        if n_sch == 1:
            footnotes.append(
                f"{cat}: significance suppressed (category spans fewer than 2 schools)"
            )
        for column, value in zip(columns.values(), row):
            column.append(value)
    if by_school and MeasureKind.ATTAINMENT8 in aligned:
        a8 = columns[f"mean_{MeasureKind.ATTAINMENT8.code}"]
        # highest first, empty categories last; the sort is stable, so ties
        # keep universe order
        order = sorted(range(len(a8)), key=lambda i: np.inf if a8[i] is None else -a8[i])
        columns = {name: [column[i] for i in order] for name, column in columns.items()}
    return columns, footnotes
