"""Command-line front end: simulate, fit, compare, breakdown, validate.

Every writing subcommand gets an --out directory and leaves exactly one
manifest.json there recording the command line, SHA-256 digests of the
bytes read from each input file, the seed (if any), the tool version, the
output file list and the wall time. Identical inputs and flags produce
byte-identical outputs (manifests differ only in wall time). Files are
written atomically (temp file + rename).

Exit codes: 0 success, 1 validation or computation failure, 2 usage error.
Each warning goes to stderr as one ``warning: <message>`` line.
Randomness exists only in `simulate --seed`; fitting is seed-free.

Run as ``vamkit <command> ...`` or ``python -m vamkit.cli <command> ...``.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import math
import os
import sys
import time
import typing
import warnings
from collections import Counter
from pathlib import Path

from . import __version__
from .analysis import (
    PUPIL_CHARACTERISTICS,
    SCHOOL_CHARACTERISTICS,
    BreakdownTable,
    compare_measures,
    pupil_breakdown,
    school_breakdown,
)
from .cohort import csv_bytes, parse_pupils, parse_schools, read_rows, validate_cohort
from .design import MeasureKind
from .errors import AnalysisError, CohortError, GeneratorError, VamkitError
from .measures import SchoolScore, compute_measures
from .ols import cluster_robust_cov, coefficient_table
from .synthgen import GeneratorConfig, generate_population, write_population_csv

_MEASURES_BY_CODE = {kind.code: kind for kind in MeasureKind}


def _parse_measures(text: str) -> list[MeasureKind]:
    if text.strip().lower() == "all":
        return list(MeasureKind)
    kinds = []
    for code in text.split(","):
        code = code.strip().lower()
        if code not in _MEASURES_BY_CODE:
            raise argparse.ArgumentTypeError(
                f"unknown measure {code!r}; valid: all, {', '.join(_MEASURES_BY_CODE)}"
            )
        kind = _MEASURES_BY_CODE[code]
        if kind not in kinds:
            kinds.append(kind)
    return kinds


def _parse_thresholds(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"thresholds must be integers, got {text!r}")
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("thresholds must be positive integers")
    return values


def _parse_precision(text: str):
    if text.strip().lower() == "full":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"precision must be 'full' or an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("precision must be nonnegative")
    return value


def _formatter(precision):
    if precision is None:
        return lambda x: repr(float(x))
    return lambda x: f"{float(x):.{precision}f}"


def _read_input(path: Path, inputs: dict[str, str]) -> bytes:
    """The file's bytes; their SHA-256 is recorded in ``inputs`` under the path."""
    data = path.read_bytes()
    inputs[str(path)] = hashlib.sha256(data).hexdigest()
    return data


def _parse_input(path: Path, inputs: dict[str, str], parse):
    """``parse`` of the file's bytes (see ``_read_input``); a CohortError names the file."""
    data = _read_input(path, inputs)
    try:
        return parse(data)
    except CohortError as exc:
        raise CohortError(f"{path}: {exc}") from exc


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(f".tmp.{path.name}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# fit and breakdown list at most this many skipped rows per file on stderr
_MAX_SKIPPED_LINES = 20


def _report_skipped(path: Path, issues) -> None:
    for issue in issues[:_MAX_SKIPPED_LINES]:
        print(f"{path.name}: skipped {issue}", file=sys.stderr)
    if issues:
        by_column = Counter(issue.column for issue in issues)
        counts = ", ".join(f"{column} {n}" for column, n in by_column.items())
        print(f"{path.name}: skipped {len(issues)} row(s); by column: {counts}", file=sys.stderr)


def _list_issues(path: Path, issues) -> None:
    for issue in issues:
        print(f"{path.name}: {issue}", file=sys.stderr)


def _read_cohort(args, inputs: dict[str, str], report):
    """The cohort of --pupils and --schools, and the issues of each file.

    The issues go to ``report(path, issues)`` before validation; a
    ``validate_cohort`` error names the file or files at fault.
    """
    paths = {"pupils": Path(args.pupils), "schools": Path(args.schools)}
    pupils, pupil_issues = _parse_input(paths["pupils"], inputs, parse_pupils)
    schools, school_issues = _parse_input(paths["schools"], inputs, parse_schools)
    report(paths["pupils"], pupil_issues)
    report(paths["schools"], school_issues)
    try:
        cohort = validate_cohort(pupils, schools)
    except CohortError as exc:
        raise CohortError(f"{', '.join(str(paths[i]) for i in exc.inputs)}: {exc}") from exc
    return cohort, pupil_issues, school_issues


def _fit_measures(args):
    """Inputs read, cohort and fitted --measures of a fit or breakdown."""
    inputs = {}
    cohort, _, _ = _read_cohort(args, inputs, _report_skipped)
    return inputs, cohort, compute_measures(cohort, args.measures)


# ---------------------------------------------------------------------------
# Output serialisation
# ---------------------------------------------------------------------------


def _cell(value, fmt) -> str:
    """None is blank, a flag 1/0, an enum its value and a float ``fmt(value)``."""
    if value is None:
        return ""
    if isinstance(value, bool):  # an int subclass: caught before str()
        return "1" if value else "0"
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        return fmt(value)
    return str(value)


def _rows_csv(rows: list, fmt) -> bytes:
    """CSV of a non-empty list of one row dataclass; the header is its field names."""
    names = [f.name for f in dataclasses.fields(rows[0])]
    return csv_bytes(names, ([_cell(getattr(row, n), fmt) for n in names] for row in rows))


def _breakdown_csv(table: BreakdownTable, kinds: list[MeasureKind], fmt) -> bytes:
    header = ["category", "n_pupils", "n_schools", "percent"]
    for kind in kinds:
        header += [f"mean_{kind.code}", f"significant_{kind.code}"]
    rows = []
    for row in table.rows:
        out = [row.category, str(row.n_pupils), str(row.n_schools), f"{row.percent:.1f}"]
        for kind in kinds:
            out += [_cell(row.means[kind], fmt), _cell(row.significant[kind], fmt)]
        rows.append(out)
    body = csv_bytes(header, rows)
    if table.footnotes:
        notes = "".join(f"# {note}\n" for note in table.footnotes)
        body += notes.encode("utf-8")
    return body


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def _one_of(table: dict):
    def parse(text: str):
        if text not in table:
            raise ValueError(f"unknown value {text!r}; valid values: {', '.join(table)}")
        return table[text]

    return parse


def _cell_parser(tp):
    """The inverse of ``_cell`` for a field annotated ``tp``."""
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return _one_of({member.value: member for member in tp})
    return _finite if tp is float else tp


def _read_school_scores(path: Path, inputs: dict[str, str]) -> list[SchoolScore]:
    """Read a school_scores CSV produced by `fit`; a bad row or cell is fatal."""
    hints = typing.get_type_hints(SchoolScore)
    names = [f.name for f in dataclasses.fields(SchoolScore)]
    parsers = [_cell_parser(hints[name]) for name in names]
    rows, row_nos, issues = _parse_input(
        path, inputs, lambda data: read_rows(data, names, "school_scores CSV")
    )
    out = []
    for row_no, row in zip(row_nos, rows):
        if issues and issues[0].row < row_no:
            break
        cells = []
        for name, parse, text in zip(names, parsers, row):
            try:
                cells.append(parse(text))
            except ValueError as exc:
                raise CohortError(f"{path}: row {row_no}, column {name}: {exc}") from exc
        out.append(SchoolScore(*cells))
    if issues:
        raise CohortError(f"{path}: {issues[0]}")
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns (inputs, seed, outputs written)
# ---------------------------------------------------------------------------


def _cmd_simulate(args, out_dir: Path):
    overrides = {}
    inputs = {}
    if args.config is not None:
        config_path = Path(args.config)
        try:
            loaded = json.loads(_read_input(config_path, inputs).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise VamkitError(f"{config_path}: not a JSON file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise VamkitError(f"{config_path}: config must be a JSON object")
        overrides.update(loaded)
    if args.schools is not None:
        overrides["n_schools"] = args.schools
    if args.seed is not None:
        overrides["seed"] = args.seed
    if isinstance(overrides.get("school_size_range"), list):
        overrides["school_size_range"] = tuple(overrides["school_size_range"])
    source = f"{args.config}: " if args.config is not None else ""
    try:
        config = GeneratorConfig(**overrides)
    except TypeError as exc:
        raise VamkitError(f"{source}invalid generator config: {exc}") from exc
    try:
        synthetic = generate_population(config)
    except GeneratorError as exc:
        raise VamkitError(f"{source}{exc}") from exc
    outputs = write_population_csv(synthetic)
    for name, data in outputs.items():
        _write_atomic(out_dir / name, data)
    return inputs, config.seed, sorted(outputs)


def _cmd_fit(args, out_dir: Path):
    inputs, cohort, results = _fit_measures(args)
    fmt = _formatter(args.precision)
    tables = {}
    for kind, res in results.items():
        cov = cluster_robust_cov(res.fit, res.design, cohort.school_index)
        tables[f"coefficients_{kind.code}.csv"] = _rows_csv(coefficient_table(res.fit, cov), fmt)
        tables[f"school_scores_{kind.code}.csv"] = _rows_csv(res.school_scores, fmt)
    tables["summary.csv"] = _rows_csv([res.summary for res in results.values()], fmt)
    for name, data in tables.items():
        _write_atomic(out_dir / name, data)
    return inputs, None, sorted(tables)


def _cmd_compare(args, out_dir: Path):
    if len(args.scores) != 2:
        raise VamkitError("compare needs exactly two --scores files")
    inputs = {}
    a, b = (_read_school_scores(Path(p), inputs) for p in args.scores)
    try:
        report = compare_measures(a, b, args.thresholds)
    except AnalysisError as exc:
        raise AnalysisError(f"{args.scores[0]}, {args.scores[1]}: {exc}") from exc
    payload = {
        "pair": list(report.measure_pair),
        "pearson_r": report.pearson_r,
        "n_schools": report.n_schools,
        "quadrants": {
            "nw": report.quadrant_counts.nw,
            "ne": report.quadrant_counts.ne,
            "sw": report.quadrant_counts.sw,
            "se": report.quadrant_counts.se,
        },
        "movements": [
            {
                "threshold": t,
                "count": c,
                "percent": 100.0 * c / report.n_schools,
            }
            for t, c in report.movement_counts.items()
        ],
        "max_rank_change": report.max_rank_change,
    }
    _write_atomic(out_dir / "comparison.json", (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
    return inputs, None, ["comparison.json"]


def _cmd_breakdown(args, out_dir: Path):
    inputs, cohort, results = _fit_measures(args)
    scores = {kind: res.scores for kind, res in results.items()}
    if args.by in PUPIL_CHARACTERISTICS:
        table = pupil_breakdown(cohort, scores, args.by)
    else:
        table = school_breakdown(cohort, scores, args.by)
    name = f"breakdown_{args.by}.csv"
    _write_atomic(out_dir / name, _breakdown_csv(table, args.measures, _formatter(args.precision)))
    return inputs, None, [name]


def _cmd_validate(args) -> int:
    cohort, pupil_issues, school_issues = _read_cohort(args, {}, _list_issues)
    if pupil_issues or school_issues:
        print(
            f"validation failed: {len(pupil_issues)} pupil issue(s), "
            f"{len(school_issues)} school issue(s)",
            file=sys.stderr,
        )
        return 1
    print(f"OK: {cohort.n_pupils} pupils in {cohort.n_schools} schools")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vamkit",
        description="School performance measures: fit, compare, break down, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic cohort with known truth")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--schools", type=int, default=None, help="number of schools")
    p.add_argument("--config", default=None, help="JSON file of generator settings")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("fit", help="fit measures and emit scores and coefficients")
    p.add_argument("--pupils", required=True)
    p.add_argument("--schools", required=True)
    p.add_argument("--measures", type=_parse_measures, default=list(MeasureKind),
                   help="comma-separated codes (a8,aa8,p8,ap8) or 'all'")
    p.add_argument("--precision", type=_parse_precision, default=None,
                   help="'full' (default) or decimal places for scores")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("compare", help="compare two school_scores.csv files")
    p.add_argument("--scores", action="append", required=True,
                   help="school_scores.csv (give exactly twice)")
    p.add_argument("--thresholds", type=_parse_thresholds, default=[500, 1000],
                   help="rank-movement thresholds, e.g. 500,1000")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("breakdown", help="category means per measure for a characteristic")
    p.add_argument("--pupils", required=True)
    p.add_argument("--schools", required=True)
    p.add_argument("--measures", type=_parse_measures, default=list(MeasureKind))
    p.add_argument("--by", required=True,
                   choices=list(PUPIL_CHARACTERISTICS) + list(SCHOOL_CHARACTERISTICS))
    p.add_argument("--precision", type=_parse_precision, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_breakdown)

    p = sub.add_parser("validate", help="schema-check pupil and school files")
    p.add_argument("--pupils", required=True)
    p.add_argument("--schools", required=True)
    p.set_defaults(handler=_cmd_validate)

    return parser


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    started = time.monotonic()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            if args.command == "validate":
                return args.handler(args)
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            inputs, seed, outputs = args.handler(args, out_dir)
    except (VamkitError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1

    manifest = {
        "command": ["vamkit"] + (argv if argv is not None else sys.argv[1:]),
        "inputs": inputs,
        "seed": seed,
        "version": __version__,
        "outputs": outputs,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    _write_atomic(out_dir / "manifest.json", (json.dumps(manifest, indent=2) + "\n").encode("utf-8"))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
