"""Cross-measure comparison and characteristic breakdowns.

Comparisons match two school-score lists on school_id and report the Pearson
correlation, quadrant counts and league-table rank movement. Ranks put the
highest score first and break ties by school_id ascending, so league tables
are deterministic. Movement at threshold t counts schools whose rank changed
by t or more places.

Quadrants are taken relative to the national mean of each measure, which is
zero by construction (pupil scores are centred residuals); schools exactly
on a boundary are assigned to the lower/left side.

Breakdowns report, per category of a pupil or school characteristic, the
pupil count, share and mean pupil score for each measure, with a test of
mean = 0 whose variance clusters on schools:

    V = G_c/(G_c - 1) * (1/n_c^2) * sum_g ( sum_{i in g, cat c} (s_i - m_c) )^2

over the G_c schools present in the category. Categories spanning fewer
than two schools have their flag suppressed with a footnote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .categories import FIELD, PUPIL_FIELDS, SCHOOL_FIELDS, Field
from .cohort import ValidatedCohort
from .design import MeasureKind
from .errors import AnalysisError
from .measures import SchoolScore
from .ols import Z95

PUPIL_CHARACTERISTICS = tuple(f.name for f in PUPIL_FIELDS if f.levels)
SCHOOL_CHARACTERISTICS = tuple(f.name for f in SCHOOL_FIELDS if f.levels)


@dataclass(frozen=True)
class QuadrantCounts:
    """School counts by quadrant of an (a, b) score scatter; a is the x axis."""

    nw: int
    ne: int
    sw: int
    se: int


@dataclass(frozen=True)
class ComparisonReport:
    """Correlation, quadrants and rank movement between two measures."""

    measure_pair: tuple[str, str]
    pearson_r: float
    n_schools: int
    quadrant_counts: QuadrantCounts
    movement_counts: dict[int, int]
    max_rank_change: int


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


def _match(
    a: Sequence[SchoolScore], b: Sequence[SchoolScore]
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Align two school-score lists on school_id; fatal on any mismatch."""
    map_a = {s.school_id: s.score for s in a}
    map_b = {s.school_id: s.score for s in b}
    if len(map_a) != len(a) or len(map_b) != len(b):
        raise AnalysisError("duplicate school_id in score list")
    only_a = sorted(set(map_a) - set(map_b))
    only_b = sorted(set(map_b) - set(map_a))
    if only_a or only_b:
        parts = []
        if only_a:
            parts.append(f"only in first: {', '.join(only_a)}")
        if only_b:
            parts.append(f"only in second: {', '.join(only_b)}")
        raise AnalysisError(f"school sets differ; {'; '.join(parts)}")
    ids = sorted(map_a)
    return (
        ids,
        np.array([map_a[i] for i in ids]),
        np.array([map_b[i] for i in ids]),
    )


def correlate(a: Sequence[SchoolScore], b: Sequence[SchoolScore]) -> float:
    """Pearson correlation of two matched school-score lists."""
    _, x, y = _match(a, b)
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float(xc @ xc)
    vy = float(yc @ yc)
    if vx == 0.0 or vy == 0.0:
        raise AnalysisError("cannot correlate: zero variance in school scores")
    return float((xc @ yc) / np.sqrt(vx * vy))


def _ranks(ids: list[str], scores: np.ndarray) -> dict[str, int]:
    """Rank 1 = highest score; ties broken by school_id ascending."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return {ids[i]: pos + 1 for pos, i in enumerate(order)}


def rank_movement(
    a: Sequence[SchoolScore],
    b: Sequence[SchoolScore],
    thresholds: Sequence[int],
) -> tuple[dict[int, int], int]:
    """League-table movement between two measures.

    Returns (counts per threshold of schools moving >= threshold places,
    maximum absolute rank change).
    """
    if any(t <= 0 for t in thresholds):
        raise AnalysisError("thresholds must be positive")
    ids, x, y = _match(a, b)
    ra = _ranks(ids, x)
    rb = _ranks(ids, y)
    moves = np.array([abs(ra[i] - rb[i]) for i in ids])
    counts = {int(t): int(np.sum(moves >= t)) for t in thresholds}
    return counts, int(moves.max()) if len(ids) else 0


def quadrant_classify(a: Sequence[SchoolScore], b: Sequence[SchoolScore]) -> QuadrantCounts:
    """Count schools per quadrant of the (a, b) scatter around (0, 0).

    Each measure's national mean is zero by construction, so the axes sit at
    the origin; boundary schools go to the lower/left side.
    """
    _, x, y = _match(a, b)
    east = x > 0.0
    north = y > 0.0
    return QuadrantCounts(
        nw=int(np.sum(~east & north)),
        ne=int(np.sum(east & north)),
        sw=int(np.sum(~east & ~north)),
        se=int(np.sum(east & ~north)),
    )


def compare_measures(
    a: Sequence[SchoolScore],
    b: Sequence[SchoolScore],
    thresholds: Sequence[int],
) -> ComparisonReport:
    """Full comparison report between two measures' school scores."""
    counts, max_change = rank_movement(a, b, thresholds)
    return ComparisonReport(
        measure_pair=(a[0].measure.code, b[0].measure.code),
        pearson_r=correlate(a, b),
        n_schools=len(a),
        quadrant_counts=quadrant_classify(a, b),
        movement_counts=counts,
        max_rank_change=max_change,
    )


# ---------------------------------------------------------------------------
# Characteristic breakdowns
# ---------------------------------------------------------------------------


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


def _clustered_mean_flag(
    values: np.ndarray, school_codes: np.ndarray, n_schools_in_cat: int
) -> bool | None:
    """Significance of mean(values) != 0 with school-clustered variance.

    Returns None (suppressed) when the category spans fewer than 2 schools.
    """
    if n_schools_in_cat < 2:
        return None
    n = values.size
    mean = values.mean()
    deviations = values - mean
    sums = np.bincount(school_codes, weights=deviations)
    v = (n_schools_in_cat / (n_schools_in_cat - 1)) * float(sums @ sums) / (n * n)
    if v <= 0.0:
        return False
    return bool(abs(mean) / np.sqrt(v) > Z95)


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
    kinds = list(aligned)
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
        if n_cat == 0:
            rows.append(
                BreakdownRow(
                    category=cat,
                    n_pupils=0,
                    n_schools=0,
                    percent=percent,
                    means={k: None for k in kinds},
                    significant={k: None for k in kinds},
                )
            )
            continue
        means: dict[MeasureKind, float | None] = {}
        flags: dict[MeasureKind, bool | None] = {}
        suppressed = False
        for kind in kinds:
            values = aligned[kind][mask]
            means[kind] = float(values.mean())
            flag = _clustered_mean_flag(values, cluster, n_sch)
            if flag is None:
                suppressed = True
            flags[kind] = flag
        if suppressed:
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
