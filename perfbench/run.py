"""Run one vamkit benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload fit_national --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the checkout; nothing needs to be
installed or built. The run prints each metric by name and unit, then, as
the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
the per-layer ones. The full record (environment, workload-specific
metrics, failed operations and, when traced, the spans) is written to
``.perfbench/<workload>-seed<seed>-trace<trace>/``.

Exit codes: 0 measured (``correct`` says whether every check passed),
1 the workload could not be measured, 2 usage error or no ``src/vamkit``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBES = 3

# Workload-specific end-to-end figures, printed and recorded beside the
# BENCHMARK.json metrics: name -> unit.
NAMED_UNITS = {
    "setup_wall_s": "s",
    "work_wall_s": "s",
    "fit_s": "s",
    "fit_peak_rss_mb": "MB",
    "compare_s": "s",
    "breakdown_s": "s",
    "breakdown_peak_rss_mb": "MB",
    "replicates_per_s": "1/s",
}
E2E_UNITS = {"setup_s": "s", "work_s": "s", "work_peak_rss_mb": "MB"}


def pin_blas_threads() -> dict[str, str]:
    """Run BLAS single-threaded, in children and in this process.

    On a shared 2-core machine two BLAS threads made small-cohort replicates
    about 25% slower and much noisier: a BLAS thread that is descheduled
    stalls the other. One thread keeps the load to one process, one thread.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def pin_to_one_core() -> int:
    """Run this process and its children on one core, so that the speed
    probes (speed.py) and the calls they scale share that core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def llc_bytes() -> int | None:
    try:
        done = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        )
        return int(done.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(b, blas_threads, cpu) -> dict:
    from vamkit.design import MeasureKind, design_labels

    llc = llc_bytes()
    n = b.cohort.get("pupils", 0)
    design_mb = {
        kind.code: n * len(design_labels(kind.model_spec)) * 8 / 1e6 for kind in MeasureKind
    }
    return {
        "cores": os.cpu_count(),
        "pinned_to_cpu": cpu,
        "llc_mb": llc / 2**20 if llc else None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": blas_threads,
        "vamkit_threads": os.environ.get("VAMKIT_THREADS", "unset"),
        "cohort": b.cohort,
        "design_mb_computed": design_mb,
    }


def import_probe_s(b) -> float:
    """Median wall time of a child process that only imports vamkit.cli."""
    from workloads import run_child

    cmd = [sys.executable, "-c", "import vamkit.cli"]
    return statistics.median(
        run_child(cmd, b.env, b.log, b.remaining()).wall_s for _ in range(IMPORT_PROBES)
    )


def end_to_end(b) -> tuple[dict, dict]:
    metrics = {
        "setup_s": statistics.median(b.setup_s),
        "work_s": statistics.median(u["work_s"] for u in b.units),
        "work_peak_rss_mb": max(u["work_peak_rss_mb"] for u in b.units),
    }
    named = {"setup_wall_s": statistics.median(b.setup_wall_s), **b.rates}
    for name in NAMED_UNITS:
        values = [u[name] for u in b.units if name in u]
        if values:
            named[name] = max(values) if name.endswith("_mb") else statistics.median(values)
    return metrics, named


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one vamkit benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "vamkit" / "cli.py").is_file():
        print(f"perfbench: no vamkit sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    cpu = pin_to_one_core()
    os.environ.pop("VAMKIT_THREADS", None)
    sys.path.insert(0, str(SRC))

    import layers
    from tracing import Tracer
    from workloads import WORKLOADS, Bench, BenchError

    if args.workload not in WORKLOADS or args.seconds < 1:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}; --seconds >= 1")

    tracer = None
    if args.trace:
        import vamkit.design

        if not Path(vamkit.design.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: vamkit imported from {vamkit.design.__file__}", file=sys.stderr)
            return 2
        tracer = Tracer(layers.describe_hooks(vamkit.design))

    b = Bench(ROOT, args.workload, args.seed, args.seconds, tracer)
    try:
        if tracer is None:
            WORKLOADS[args.workload](b)
        else:
            with tracer.installed(layers.PACKAGE, layers.LAYERS):
                WORKLOADS[args.workload](b)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        b.cleanup()

    failed = [op for op in b.ops if op["problems"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(b, blas_threads, cpu),
        "attempted": len(b.ops),
        "failed": failed,
        "failed_share": len(failed) / len(b.ops),
    }
    if tracer is None:
        metrics, named = end_to_end(b)
        record.update(
            setup_samples_s=b.setup_s, setup_wall_samples_s=b.setup_wall_s,
            units=b.units, metrics=metrics, named=named,
        )
        units = E2E_UNITS
        shown = {**metrics, **named}
        shown_units = {**E2E_UNITS, **NAMED_UNITS}
    else:
        metrics = layers.layer_metrics(
            tracer.spans,
            import_s=import_probe_s(b),
            overhead_share=tracer.overhead_share(b.traced_wall_s),
        )
        record.update(traced_wall_s=b.traced_wall_s, metrics=metrics)
        (b.work / "spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
        units = {name: layers.unit_of(name) for name in metrics}
        shown, shown_units = metrics, units
    (b.work / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(b.ops)} operations, {len(failed)} failed; record in {b.work.relative_to(ROOT)}")
    for name, value in shown.items():
        print(f"  {name:<28} {value:>14.6g} {shown_units[name]}")
    print(f"  {'failed_share':<28} {record['failed_share']:>14.6g} ratio")
    for op in failed:
        print(f"  FAILED {op['what']}: {'; '.join(op['problems'])}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(b.ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
