"""The per-object comparison, kept as a test oracle.

``reference_report`` is the comparison as it was computed from lists of
:class:`SchoolScore` before the statistics moved to columns: a dict per
list to match on school_id, ranks from a sort keyed (-score, school_id),
``sum`` over a generator per threshold and a ``Counter`` over quadrant
tuples. Tests hold ``vamkit.compare`` to it, comparison for comparison and
error text for error text.
"""

from __future__ import annotations

import math
from collections import Counter

from vamkit.errors import AnalysisError


def _match(a, b):
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


def _pearson(x, y):
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    xc, yc = [v - mx for v in x], [v - my for v in y]
    vx = math.fsum(v * v for v in xc)
    vy = math.fsum(v * v for v in yc)
    if vx == 0.0 or vy == 0.0:
        raise AnalysisError("cannot correlate: zero variance in school scores")
    return math.fsum(p * q for p, q in zip(xc, yc)) / math.sqrt(vx * vy)


def _ranks(ids, scores):
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    ranks = [0] * len(ids)
    for pos, i in enumerate(order, start=1):
        ranks[i] = pos
    return ranks


def reference_report(a, b, thresholds) -> dict:
    """The comparison of two SchoolScore lists, school by school, as
    ``comparison.json`` holds it."""
    if not a or not b:
        raise AnalysisError("cannot compare: a score list is empty")
    if any(t <= 0 for t in thresholds):
        raise AnalysisError("thresholds must be positive")
    ids, x, y = _match(a, b)
    moves = [abs(p - q) for p, q in zip(_ranks(ids, x), _ranks(ids, y))]
    n = Counter((p > 0.0, q > 0.0) for p, q in zip(x, y))
    counts = {int(t): sum(m >= t for m in moves) for t in thresholds}
    return {
        "pair": [a[0].measure.code, b[0].measure.code],
        "pearson_r": _pearson(x, y),
        "n_schools": len(a),
        "quadrants": {
            "nw": n[False, True], "ne": n[True, True], "sw": n[False, False], "se": n[True, False]
        },
        "movements": [
            {"threshold": t, "count": c, "percent": 100.0 * c / len(a)} for t, c in counts.items()
        ],
        "max_rank_change": max(moves, default=0),
    }
