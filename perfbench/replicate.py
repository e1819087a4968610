"""One small-cohort replicate, and the worker process that loops over them.

A replicate generates a 40-school cohort, computes all four measures and
the clustered coefficient table of ap8, and checks the scores. Every call
goes through the vamkit module attributes, so an installed tracer sees it.

Run as a worker (the package must be importable, e.g. through PYTHONPATH):

    python3 perfbench/replicate.py --seed 7 --seconds 10
    python3 perfbench/replicate.py --seed 7 --seconds 0   # set-up only

It imports vamkit and runs one warm-up replicate (the set-up), then loops
over replicates until --seconds have passed, and prints one JSON line.
Times are also reported scaled to the reference speed (see speed.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import speed

N_SCHOOLS = 40
MEAN_ZERO_TOL = 1e-9


def run_replicate(seed: int) -> dict:
    """Generate, fit and check one replicate; returns its record."""
    from vamkit import measures, ols, synthgen
    from vamkit.design import MeasureKind

    started = time.perf_counter()
    synthetic = synthgen.generate_population(synthgen.GeneratorConfig(n_schools=N_SCHOOLS, seed=seed))
    cohort = synthetic.cohort
    results = {kind: measures.compute_measure(cohort, kind) for kind in MeasureKind}
    ap8 = results[MeasureKind.ADJUSTED_PROGRESS8]
    cov = ols.cluster_robust_cov(ap8.fit, ap8.design, [p.school_id for p in cohort.pupils])
    table = ols.coefficient_table(ap8.fit, cov)
    wall = time.perf_counter() - started

    problems = []
    mean = sum(p.score for p in ap8.pupil_scores) / len(ap8.pupil_scores)
    if not abs(mean) <= MEAN_ZERO_TOL:
        problems.append(f"seed {seed}: ap8 pupil-score mean {mean}")
    school_ids = {s.school_id for s in cohort.schools}
    for kind, res in results.items():
        if {s.school_id for s in res.school_scores} != school_ids:
            problems.append(f"seed {seed}: {kind.code} does not score every school")
    digest = hashlib.sha256(
        repr(
            ([(s.school_id, s.score, s.ci_low, s.ci_high) for s in ap8.school_scores], table)
        ).encode()
    ).hexdigest()
    return {
        "seed": seed,
        "wall_s": wall,
        "n_pupils": cohort.n_pupils,
        "problems": problems,
        "digest": digest,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    with speed.Monitor() as monitor:
        started = time.perf_counter()
        import vamkit  # noqa: F401  (the import is part of the set-up)

        warmup = run_replicate(args.seed)
        setup_wall_s = time.perf_counter() - started
    setup_s = monitor.scaled(setup_wall_s)
    replicates = []
    loop_started = time.perf_counter()
    i = 1
    while time.perf_counter() - loop_started < args.seconds:
        with speed.Monitor() as monitor:
            record = run_replicate(args.seed + i)
        record["scaled_s"] = monitor.scaled(record["wall_s"])
        replicates.append(record)
        i += 1
    loop_s = time.perf_counter() - loop_started
    print(json.dumps({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "warmup": warmup,
        "replicates": replicates,
        "loop_s": loop_s,
        "vamkit_file": vamkit.__file__,
    }))


if __name__ == "__main__":
    main()
