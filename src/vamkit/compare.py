"""Cross-measure comparison of school scores.

Comparisons match two measures' school scores on school_id and report the
Pearson correlation, quadrant counts and league-table rank movement. Ranks
put the highest score first and break ties by school_id ascending, so league
tables are deterministic. Movement at threshold t counts schools whose rank
changed by t or more places.

Quadrants are taken relative to the national mean of each measure, which is
zero by construction (pupil scores are centred residuals); schools exactly
on a boundary are assigned to the lower/left side.

Every comparison takes school scores held as columns, keyed by
:class:`SchoolScore` field name: it reads the ``school_id`` and ``score``
columns (plain lists) and, for :func:`compare_columns`, the first
``measure``. ``MeasureResult.school_columns`` holds such columns, and the
CLI's ``compare`` reads each score file into them, with no per-school object
and without importing numpy. The CLI writes what :func:`compare_columns`
returns as it is; :func:`rank_movement` and :func:`quadrant_classify` give
single statistics, also of constant scores, which have no correlation.
Each statistic is one C-level pass (``map``, ``sorted``, ``Counter``) where
it can be. The correlation's means and sums are ``math.fsum``s: correctly
rounded, and independent of summation order.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import Counter
from itertools import repeat
from typing import Mapping, Sequence

from .categories import MeasureKind, SignificanceCategory
from .errors import AnalysisError, id_list


# The columns of a school_scores file, in order, and the type of each value:
# the fields of SchoolScore, and what the CLI's compare reads each cell as.
SCORE_COLUMNS = {
    "school_id": str,
    "measure": MeasureKind,
    "score": float,
    "n_pupils": int,
    "ci_low": float,
    "ci_high": float,
    "category": SignificanceCategory,
}


def __getattr__(name: str):
    """``SchoolScore``, the frozen dataclass of ``SCORE_COLUMNS``, made on
    first use (PEP 562), so that the CLI's ``compare`` imports no
    ``dataclasses``."""
    if name != "SchoolScore":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from dataclasses import make_dataclass

    doc = "A school's measure score (mean of its pupil scores) with 95% CI."
    namespace = {"__module__": __name__, "__doc__": doc}
    cls = make_dataclass(name, SCORE_COLUMNS.items(), namespace=namespace, frozen=True)
    globals()[name] = cls
    return cls


# School scores as columns, keyed by SchoolScore field name.
Columns = Mapping[str, Sequence]


def _match(a: Columns, b: Columns) -> tuple[list[float], list[float]]:
    """The two score columns aligned on school_id, in ascending school_id
    order; fatal on any mismatch."""
    ids_a, ids_b = a["school_id"], b["school_id"]
    map_a = dict(zip(ids_a, a["score"]))
    map_b = dict(zip(ids_b, b["score"]))
    if len(map_a) != len(ids_a) or len(map_b) != len(ids_b):
        raise AnalysisError("duplicate school_id in score list")
    if map_a.keys() != map_b.keys():
        only_a = sorted(map_a.keys() - map_b.keys())
        only_b = sorted(map_b.keys() - map_a.keys())
        parts = []
        if only_a:
            parts.append(f"only in first: {id_list(only_a)}")
        if only_b:
            parts.append(f"only in second: {id_list(only_b)}")
        raise AnalysisError(f"school sets differ; {'; '.join(parts)}")
    ids = sorted(map_a)
    return list(map(map_a.__getitem__, ids)), list(map(map_b.__getitem__, ids))


def _centred(values: list[float]) -> list[float]:
    mean = math.fsum(values) / len(values)
    return list(map(operator.sub, values, repeat(mean)))


def _pearson(x: list[float], y: list[float]) -> float:
    xc, yc = _centred(x), _centred(y)
    vx = math.fsum(map(operator.mul, xc, xc))
    vy = math.fsum(map(operator.mul, yc, yc))
    if vx == 0.0 or vy == 0.0:
        raise AnalysisError("cannot correlate: zero variance in school scores")
    return math.fsum(map(operator.mul, xc, yc)) / math.sqrt(vx * vy)


def _ranks(scores: list[float]) -> list[int]:
    """Each school's rank, 1 = highest score, for scores in ascending
    school_id order: the sort is stable, so ties keep that order."""
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    ranks = [0] * len(scores)
    for pos, i in enumerate(order, start=1):
        ranks[i] = pos
    return ranks


def _check_thresholds(thresholds: Sequence[int]) -> None:
    if any(t <= 0 for t in thresholds):
        raise AnalysisError("thresholds must be positive")


def _movement(
    x: list[float], y: list[float], thresholds: Sequence[int]
) -> tuple[dict[int, int], int]:
    """Rank movement of matched scores in ascending school_id order."""
    moves = sorted(map(abs, map(operator.sub, _ranks(x), _ranks(y))))
    counts = {int(t): len(moves) - bisect.bisect_left(moves, t) for t in thresholds}
    return counts, moves[-1] if moves else 0


def rank_movement(a: Columns, b: Columns, thresholds: Sequence[int]) -> tuple[dict[int, int], int]:
    """League-table movement between two measures.

    Returns (counts per threshold of schools moving >= threshold places,
    maximum absolute rank change).
    """
    _check_thresholds(thresholds)
    return _movement(*_match(a, b), thresholds)


def _quadrants(x: list[float], y: list[float]) -> dict[str, int]:
    # keyed (east, north)
    n = Counter(zip(map(operator.gt, x, repeat(0.0)), map(operator.gt, y, repeat(0.0))))
    return {"nw": n[False, True], "ne": n[True, True], "sw": n[False, False], "se": n[True, False]}


def quadrant_classify(a: Columns, b: Columns) -> dict[str, int]:
    """Count schools per quadrant of the (a, b) scatter around (0, 0).

    Each measure's national mean is zero by construction, so the axes sit at
    the origin; boundary schools go to the lower/left side.
    """
    return _quadrants(*_match(a, b))


def compare_columns(a: Columns, b: Columns, thresholds: Sequence[int]) -> dict:
    """Two measures' school scores, held as columns, compared: the dict of
    plain builtins that ``comparison.json`` holds. Each of ``a`` and ``b``
    maps ``school_id`` to a list of ids, ``score`` to a list of floats and
    ``measure`` to a list whose first :class:`MeasureKind` names the
    measure; the columns are matched once, for every statistic.
    """
    if not a["school_id"] or not b["school_id"]:
        raise AnalysisError("cannot compare: a score list is empty")
    _check_thresholds(thresholds)
    x, y = _match(a, b)
    counts, max_change = _movement(x, y, thresholds)
    return {
        "pair": [a["measure"][0].code, b["measure"][0].code],
        "pearson_r": _pearson(x, y),
        "n_schools": len(x),
        "quadrants": _quadrants(x, y),
        "movements": [
            {"threshold": t, "count": c, "percent": 100.0 * c / len(x)} for t, c in counts.items()
        ],
        "max_rank_change": max_change,
    }
