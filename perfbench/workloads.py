"""The three workloads and the machinery they share.

Every workload is a closed loop from one process: each call starts after the
previous one has finished. With tracing off, CLI calls run as child
processes of the checkout's ``vamkit.cli.main`` and are timed from outside
(wall clock and the child's peak RSS from ``wait4``). With tracing on, the
same argv goes to ``vamkit.cli.run`` in this process under a Tracer, and
each loop runs a fixed number of units so that counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import speed
from checks import PAIRS
from replicate import N_SCHOOLS, run_replicate
from tracing import Tracer, peak_rss_mb

HERE = Path(__file__).resolve().parent
CLI_MAIN = "from vamkit.cli import main; main()"
NATIONAL_SCHOOLS = 3098
DEFAULT_SCHOOLS = 300
SETUP_REPEATS = 3  # set-ups per run where one is cheap; setup_s is their median
TRACED_REPLICATES = 10
HARD_LIMIT_S = 175.0  # a child still running then is killed
SOFT_LIMIT_S = 150.0  # no further loop unit starts if it would end after this


class BenchError(Exception):
    """The workload cannot be measured (its set-up failed)."""


@dataclass
class Call:
    argv: list[str]
    rc: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes = b""
    scaled_s: float = 0.0


def run_child(cmd, env, log: Path, timeout: float, capture: bool = False) -> Call:
    """Run a child to completion; its wall time and its own peak RSS.

    A child still running after ``timeout`` seconds is killed; it is always
    reaped before this returns.
    """
    with open(log, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if capture else err, stderr=err,
        )
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read() if capture else b""
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.stdout is not None:
                proc.stdout.close()
    return Call([str(c) for c in cmd], proc.returncode, wall, usage.ru_maxrss / 1024.0, out)


def _out_dir(argv) -> Path:
    return Path(argv[argv.index("--out") + 1])


def _digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


@dataclass
class Bench:
    """State of one benchmark invocation."""

    root: Path
    workload: str
    seed: int
    seconds: int
    tracer: Tracer | None
    started: float = field(default_factory=time.perf_counter)
    ops: list[dict] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    units: list[dict] = field(default_factory=list)
    cohort: dict = field(default_factory=dict)
    traced_wall_s: float = 0.0
    rates: dict = field(default_factory=dict)
    _outputs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.work = self.root / ".perfbench" / f"{self.workload}-seed{self.seed}-trace{int(self.traced)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.out = self.work / "out"
        self.out.mkdir(parents=True)
        self.log = self.work / "children.log"
        self.env = dict(os.environ)
        self.env.pop("VAMKIT_THREADS", None)
        src = str(self.root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, self.env.get("PYTHONPATH")]))

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def op(self, what: str, problems: list[str]) -> None:
        self.ops.append({"what": what, "problems": problems})

    # -- CLI calls ---------------------------------------------------------

    def _cli(self, argv: list[str]) -> Call:
        if not self.traced:
            return run_child([sys.executable, "-c", CLI_MAIN, *argv], self.env, self.log, self.remaining())
        import vamkit.cli

        self.tracer.run_id = f"{argv[0]}#{len(self.ops)}"
        with open(self.log, "a") as err, contextlib.redirect_stderr(err):
            started = time.perf_counter()
            try:
                rc = vamkit.cli.run(argv)
            except Exception:  # a crash counts as a failed call, as it would in a child
                traceback.print_exc()
                rc = 1
            wall = time.perf_counter() - started
        self.traced_wall_s += wall
        return Call(argv, rc, wall, peak_rss_mb())

    def call(self, argv, check=None) -> Call:
        """One CLI call, its output checks, and byte identity with an earlier
        call of the same argv (apart from --out) in this invocation."""
        argv = [str(a) for a in argv]
        if self.traced:
            call = self._cli(argv)
            call.scaled_s = call.wall_s
        else:
            with speed.Monitor() as monitor:
                call = self._cli(argv)
            call.scaled_s = monitor.scaled(call.wall_s)
        out = _out_dir(argv)
        problems = [] if call.rc == 0 else [f"exit code {call.rc}"]
        if call.rc == 0 and check is not None:
            problems += check(out)
        if call.rc == 0 and out.is_dir():
            key = tuple("<out>" if a == str(out) else a for a in argv)
            digests = _digests(out)
            first = self._outputs.setdefault(key, digests)
            if digests != first:
                problems.append(f"{argv[0]}: outputs differ from an identical earlier call")
        self.op(f"{argv[0]} {out.name}", problems)
        return call

    def simulate(self, n_schools: int, repeats: int) -> Path:
        """Set-up: simulate the cohort ``repeats`` times; the first is the input."""
        for r in range(repeats):
            out = self.out / f"cohort{r}"
            call = self.call(
                ["simulate", "--schools", n_schools, "--seed", self.seed, "--out", out],
                checks.simulate_outputs,
            )
            if r == 0 and self.ops[-1]["problems"]:
                raise BenchError(f"set-up failed: {self.ops[-1]['problems']}")
            if call.rc == 0:
                self.setup_s.append(call.scaled_s)
                self.setup_wall_s.append(call.wall_s)
        data = self.out / "cohort0"
        self.cohort = {
            "pupils": (data / "pupils.csv").read_bytes().count(b"\n") - 1,
            "schools": (data / "schools.csv").read_bytes().count(b"\n") - 1,
            "input_bytes": (data / "pupils.csv").stat().st_size + (data / "schools.csv").stat().st_size,
        }
        return data

    def loop(self, unit) -> None:
        """Run units while the next one, as long as the last, would end
        within --seconds; at least one, and exactly one when traced."""
        started = time.perf_counter()
        while True:
            unit_started = time.perf_counter()
            self.units.append(unit(len(self.units)))
            now = time.perf_counter()
            last = now - unit_started
            if (
                self.traced
                or now - started + last > self.seconds
                or now - self.started + last > SOFT_LIMIT_S
            ):
                return

    def cleanup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def fit_national(b: Bench) -> None:
    """simulate (3,098 schools); then fit all four measures and compare all six pairs."""
    data = b.simulate(NATIONAL_SCHOOLS, repeats=1)

    def compare(fit_dir: Path, x: str, y: str, out: Path) -> Call:
        return b.call(
            ["compare", "--scores", fit_dir / f"school_scores_{x}.csv",
             "--scores", fit_dir / f"school_scores_{y}.csv", "--out", out],
            lambda o: checks.comparison_outputs(o, b.cohort["schools"]),
        )

    def unit(i):
        out = b.out / f"fit{i}"
        fit = b.call(
            ["fit", "--pupils", data / "pupils.csv", "--schools", data / "schools.csv",
             "--measures", "all", "--out", out],
            lambda o: checks.fit_outputs(o, data),
        )
        compares = [compare(out, x, y, out / f"compare_{x}_{y}") for x, y in PAIRS]
        compare_s = sum(c.wall_s for c in compares)
        return {
            "work_s": fit.scaled_s + sum(c.scaled_s for c in compares),
            "work_wall_s": fit.wall_s + compare_s,
            "work_peak_rss_mb": max(c.peak_rss_mb for c in [fit, *compares]),
            "fit_s": fit.wall_s,
            "fit_peak_rss_mb": fit.peak_rss_mb,
            "compare_s": compare_s,
        }

    b.loop(unit)
    # One unit is the usual case, so repeat one compare to check determinism.
    compare(b.out / "fit0", *PAIRS[0], b.out / "compare_again")


def breakdown_default(b: Bench) -> None:
    """simulate (300 schools) three times; then breakdown by ethnicity and by region."""
    data = b.simulate(DEFAULT_SCHOOLS, repeats=SETUP_REPEATS)

    def unit(i):
        calls = [
            b.call(
                ["breakdown", "--pupils", data / "pupils.csv", "--schools", data / "schools.csv",
                 "--measures", "all", "--by", by, "--out", b.out / f"breakdown{i}_{by}"],
                lambda o, by=by: checks.breakdown_outputs(o, f"breakdown_{by}.csv"),
            )
            for by in ("ethnicity", "region")
        ]
        return {
            "work_s": sum(c.scaled_s for c in calls),
            "work_wall_s": sum(c.wall_s for c in calls),
            "work_peak_rss_mb": max(c.peak_rss_mb for c in calls),
            "breakdown_s": sum(c.wall_s for c in calls),
            "breakdown_peak_rss_mb": max(c.peak_rss_mb for c in calls),
        }

    b.loop(unit)


def _replicate_ops(b: Bench, records: list[dict], label: str) -> None:
    for rec in records:
        b.op(f"{label} seed {rec['seed']}", rec["problems"])


def _replicate_cohort(records: list[dict]) -> dict:
    """Median replicate size; replicates are generated in memory, not read."""
    pupils = statistics.median(rec["n_pupils"] for rec in records)
    return {"pupils": pupils, "schools": N_SCHOOLS, "input_bytes": 0}


def replicates_small(b: Bench) -> None:
    """Import and one warm-up replicate (the set-up); then a loop of replicates."""
    if b.traced:
        _replicates_traced(b)
        return
    cmd = [sys.executable, str(HERE / "replicate.py"), "--seed", str(b.seed), "--seconds"]
    reports = []
    for seconds in [0] * (SETUP_REPEATS - 1) + [b.seconds]:
        call = run_child(cmd + [str(seconds)], b.env, b.log, b.remaining(), capture=True)
        if call.rc != 0:
            raise BenchError(f"replicate worker exited with {call.rc}")
        report = json.loads(call.stdout)
        if not Path(report["vamkit_file"]).resolve().is_relative_to(b.root / "src"):
            raise BenchError(f"vamkit imported from {report['vamkit_file']}, not the checkout")
        reports.append((report, call))
    for report, _ in reports:
        b.setup_s.append(report["setup_s"])
        b.setup_wall_s.append(report["setup_wall_s"])
        warmup = report["warmup"]
        if warmup["digest"] != reports[0][0]["warmup"]["digest"]:
            warmup["problems"].append("warm-up replicate differs between workers")
        _replicate_ops(b, [warmup], "warm-up")
    report, call = reports[-1]
    _replicate_ops(b, report["replicates"], "replicate")
    b.units = [
        {"work_s": rec["scaled_s"], "work_wall_s": rec["wall_s"], "work_peak_rss_mb": call.peak_rss_mb}
        for rec in report["replicates"]
    ]
    ok = sum(1 for rec in report["replicates"] if not rec["problems"])
    b.rates["replicates_per_s"] = ok / report["loop_s"]
    b.cohort = _replicate_cohort(report["replicates"])


def _replicates_traced(b: Bench) -> None:
    # The warm-up seed runs twice to check determinism, then the loop.
    seeds = [b.seed, b.seed] + [b.seed + i for i in range(1, TRACED_REPLICATES + 1)]
    records = []
    with open(b.log, "a") as err, contextlib.redirect_stderr(err):
        for i, seed in enumerate(seeds):
            b.tracer.run_id = f"replicate#{i}"
            records.append(run_replicate(seed))
    if records[1]["digest"] != records[0]["digest"]:
        records[1]["problems"].append("warm-up replicate differs when repeated")
    b.traced_wall_s = sum(rec["wall_s"] for rec in records)
    _replicate_ops(b, records, "replicate")
    b.cohort = _replicate_cohort(records[2:])


WORKLOADS = {
    "fit_national": fit_national,
    "breakdown_default": breakdown_default,
    "replicates_small": replicates_small,
}
