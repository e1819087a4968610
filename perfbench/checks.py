"""Output checks. Each returns a list of problems; an empty list passes.

The checks test properties the outputs must have on any correct version of
the program, never byte digests, because a later change may alter outputs on
purpose. Byte identity is only compared between calls of one invocation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

CODES = ("a8", "aa8", "p8", "ap8")
PAIRS = tuple((a, b) for i, a in enumerate(CODES) for b in CODES[i + 1:])
SIMULATE_FILES = ("pupils.csv", "schools.csv", "truth.csv", "manifest.json")
FIT_FILES = (
    tuple(f"coefficients_{c}.csv" for c in CODES)
    + tuple(f"school_scores_{c}.csv" for c in CODES)
    + ("summary.csv", "manifest.json")
)
AP8_ADJ_R2 = (0.57, 0.67)
MEAN_ZERO_TOL = 1e-9


def missing_files(out_dir: Path, names) -> list[str]:
    return [f"{out_dir.name}/{name} missing" for name in names if not (out_dir / name).is_file()]


def _rows(path: Path) -> list[dict[str, str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _first_column(path: Path) -> list[str]:
    return [row[0] for row in csv.reader(io.StringIO(path.read_text(encoding="utf-8")))][1:]


def nonfinite_cells(path: Path) -> list[str]:
    """Cells that read as a number but are NaN or infinite."""
    problems = []
    for row_no, row in enumerate(_rows(path), start=1):
        for column, cell in row.items():
            try:
                value = float(cell)
            except (TypeError, ValueError):
                continue
            if not math.isfinite(value):
                problems.append(f"{path.name} row {row_no} {column}: {cell}")
    return problems


def _pearson(x: list[float], y: list[float]) -> float:
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def simulate_outputs(out_dir: Path) -> list[str]:
    problems = missing_files(out_dir, SIMULATE_FILES)
    if not problems:
        problems += nonfinite_cells(out_dir / "truth.csv")
    return problems


def fit_outputs(out_dir: Path, data_dir: Path) -> list[str]:
    """Files, finiteness, one row per school and measure, ap8 fit quality."""
    problems = missing_files(out_dir, FIT_FILES)
    if problems:
        return problems
    for path in sorted(out_dir.glob("*.csv")):
        problems += nonfinite_cells(path)
    schools = _first_column(data_dir / "schools.csv")
    truth = {row["school_id"]: float(row["true_effect_points"]) for row in _rows(data_dir / "truth.csv")}
    correlations = {}
    for code in CODES:
        rows = _rows(out_dir / f"school_scores_{code}.csv")
        ids = [row["school_id"] for row in rows]
        if len(ids) != len(set(ids)) or set(ids) != set(schools):
            problems.append(f"school_scores_{code}.csv: not one row per school")
            continue
        if any(row["measure"] != code for row in rows):
            problems.append(f"school_scores_{code}.csv: wrong measure column")
        correlations[code] = _pearson(
            [float(row["score"]) for row in rows], [truth[i] for i in ids]
        )
    if correlations and max(correlations, key=correlations.get) != "ap8":
        problems.append(f"ap8 does not correlate best with truth: {correlations}")
    summary = {row["measure"]: row for row in _rows(out_dir / "summary.csv")}
    adj = float(summary["ap8"]["adjusted_r_squared"]) if "ap8" in summary else math.nan
    if not AP8_ADJ_R2[0] <= adj <= AP8_ADJ_R2[1]:
        problems.append(f"ap8 adjusted R^2 {adj} outside {AP8_ADJ_R2}")
    return problems


def comparison_outputs(out_dir: Path, n_schools: int) -> list[str]:
    problems = missing_files(out_dir, ("comparison.json", "manifest.json"))
    if problems:
        return problems
    report = json.loads((out_dir / "comparison.json").read_text(encoding="utf-8"))
    numbers = [report["pearson_r"], report["max_rank_change"]]
    numbers += [m[key] for m in report["movements"] for key in ("count", "percent")]
    if not all(math.isfinite(v) for v in numbers):
        problems.append(f"{out_dir.name}: non-finite number in comparison.json")
    if sum(report["quadrants"].values()) != report["n_schools"]:
        problems.append(f"{out_dir.name}: quadrants do not sum to n_schools")
    if report["n_schools"] != n_schools:
        problems.append(f"{out_dir.name}: n_schools {report['n_schools']} != {n_schools}")
    return problems


def breakdown_outputs(out_dir: Path, name: str) -> list[str]:
    """The pupil-weighted mean of the category means is 0 for every measure."""
    problems = missing_files(out_dir, (name, "manifest.json"))
    if problems:
        return problems
    path = out_dir / name
    problems += nonfinite_cells(path)
    rows = _rows(path)
    for code in CODES:
        column = f"mean_{code}"
        weighted = [(int(r["n_pupils"]), float(r[column])) for r in rows if r.get(column)]
        total = sum(n for n, _ in weighted)
        mean = sum(n * m for n, m in weighted) / total if total else math.nan
        if not abs(mean) <= MEAN_ZERO_TOL:
            problems.append(f"{name}: pupil-weighted mean of {column} is {mean}")
    return problems
