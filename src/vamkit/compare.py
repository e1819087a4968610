"""Cross-measure comparison of school scores.

Comparisons match two school-score lists on school_id and report the Pearson
correlation, quadrant counts and league-table rank movement. Ranks put the
highest score first and break ties by school_id ascending, so league tables
are deterministic. Movement at threshold t counts schools whose rank changed
by t or more places.

Quadrants are taken relative to the national mean of each measure, which is
zero by construction (pupil scores are centred residuals); schools exactly
on a boundary are assigned to the lower/left side.

Everything here is plain Python over lists, so the CLI's ``compare`` runs
without importing numpy. The correlation's means and sums are
``math.fsum``s: correctly rounded, and independent of summation order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .categories import MeasureKind, SignificanceCategory
from .errors import AnalysisError


@dataclass(frozen=True)
class SchoolScore:
    """A school's measure score (mean of its pupil scores) with 95% CI."""

    school_id: str
    measure: MeasureKind
    score: float
    n_pupils: int
    ci_low: float
    ci_high: float
    category: SignificanceCategory


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


def _match(
    a: Sequence[SchoolScore], b: Sequence[SchoolScore]
) -> tuple[list[str], list[float], list[float]]:
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
    return ids, [float(map_a[i]) for i in ids], [float(map_b[i]) for i in ids]


def _centred(values: list[float]) -> list[float]:
    mean = math.fsum(values) / max(len(values), 1)
    return [v - mean for v in values]


def _pearson(x: list[float], y: list[float]) -> float:
    xc, yc = _centred(x), _centred(y)
    vx = math.fsum(v * v for v in xc)
    vy = math.fsum(v * v for v in yc)
    if vx == 0.0 or vy == 0.0:
        raise AnalysisError("cannot correlate: zero variance in school scores")
    return math.fsum(p * q for p, q in zip(xc, yc)) / math.sqrt(vx * vy)


def correlate(a: Sequence[SchoolScore], b: Sequence[SchoolScore]) -> float:
    """Pearson correlation of two matched school-score lists."""
    _, x, y = _match(a, b)
    return _pearson(x, y)


def _ranks(ids: list[str], scores: list[float]) -> list[int]:
    """Each school's rank, 1 = highest score; ties broken by school_id ascending."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    ranks = [0] * len(ids)
    for pos, i in enumerate(order, start=1):
        ranks[i] = pos
    return ranks


def _check_thresholds(thresholds: Sequence[int]) -> None:
    if any(t <= 0 for t in thresholds):
        raise AnalysisError("thresholds must be positive")


def _movement(
    ids: list[str], x: list[float], y: list[float], thresholds: Sequence[int]
) -> tuple[dict[int, int], int]:
    moves = [abs(p - q) for p, q in zip(_ranks(ids, x), _ranks(ids, y))]
    counts = {int(t): sum(m >= t for m in moves) for t in thresholds}
    return counts, max(moves, default=0)


def rank_movement(
    a: Sequence[SchoolScore],
    b: Sequence[SchoolScore],
    thresholds: Sequence[int],
) -> tuple[dict[int, int], int]:
    """League-table movement between two measures.

    Returns (counts per threshold of schools moving >= threshold places,
    maximum absolute rank change).
    """
    _check_thresholds(thresholds)
    return _movement(*_match(a, b), thresholds)


def _quadrants(x: list[float], y: list[float]) -> QuadrantCounts:
    # keyed (east, north)
    n = Counter((p > 0.0, q > 0.0) for p, q in zip(x, y))
    return QuadrantCounts(
        nw=n[False, True], ne=n[True, True], sw=n[False, False], se=n[True, False]
    )


def quadrant_classify(a: Sequence[SchoolScore], b: Sequence[SchoolScore]) -> QuadrantCounts:
    """Count schools per quadrant of the (a, b) scatter around (0, 0).

    Each measure's national mean is zero by construction, so the axes sit at
    the origin; boundary schools go to the lower/left side.
    """
    _, x, y = _match(a, b)
    return _quadrants(x, y)


def compare_measures(
    a: Sequence[SchoolScore],
    b: Sequence[SchoolScore],
    thresholds: Sequence[int],
) -> ComparisonReport:
    """Full comparison report between two measures' school scores.

    The two lists are matched once, for every statistic of the report.
    """
    if not a or not b:
        raise AnalysisError("cannot compare: a score list is empty")
    _check_thresholds(thresholds)
    ids, x, y = _match(a, b)
    counts, max_change = _movement(ids, x, y, thresholds)
    return ComparisonReport(
        measure_pair=(a[0].measure.code, b[0].measure.code),
        pearson_r=_pearson(x, y),
        n_schools=len(a),
        quadrant_counts=_quadrants(x, y),
        movement_counts=counts,
        max_rank_change=max_change,
    )
