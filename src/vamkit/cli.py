"""Command-line front end: simulate, fit, compare, breakdown, validate.

Every writing subcommand gets an --out directory and leaves exactly one
manifest.json there recording the command line, SHA-256 digests of the
bytes parsed from each input file, the seed (if any), the tool version, the
output file list, a run report (``simulate`` only: ``n_clipped``, the
outcomes clipped to the score range) and the wall time. Identical inputs
and flags produce byte-identical outputs (manifests differ only in wall
time). Files are written atomically (temp file + rename).

Exit codes: 0 success, 1 validation or computation failure, 2 usage error.
Each warning goes to stderr as one ``warning: <message>`` line.
Randomness exists only in `simulate --seed`; fitting is seed-free.

``fit``, ``breakdown`` and ``validate`` read each cohort file as a stream,
so a parse holds the file's columns and one block of its bytes, never the
whole file; ``fit`` then runs one measure at a time and keeps only its
output tables. ``breakdown`` parses the cohort and fits each measure once,
keeps only the pupil scores, then runs one ``analysis.breakdown`` per
characteristic of ``--by`` (a comma list, or ``all`` for all fifteen),
each gathering a category's scores through one row index and writing
``breakdown_<by>.csv`` byte-identical to a single ``--by`` run's.
``simulate`` writes each block of a cohort file as it is made.
``compare`` takes exactly two ``--scores`` files and writes what
``compare.compare_columns`` returns, as it is, to ``comparison.json``.

Each subcommand imports only the modules it runs: ``compare`` needs the
standard library alone, while ``simulate``, ``fit``, ``breakdown`` and
``validate`` import numpy and the model modules when their handler starts.

Run as ``vamkit <command> ...`` or ``python -m vamkit.cli <command> ...``.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .categories import (
    FIELD, ID_MAX_CHARS, PUPIL_CHARACTERISTICS, SCHOOL_CHARACTERISTICS, MeasureKind,
)
from .compare import SchoolScore, compare_columns
from .csvio import csv_bytes, read_blocks
from .errors import AnalysisError, CohortError, DesignError, FitError, GeneratorError, VamkitError

if typing.TYPE_CHECKING:
    from .analysis import BreakdownTable


def _list_parser(noun: str, values: dict):
    """An argparse type for a comma list of ``values``' names or 'all', in
    any case: every value, in ``values``' order, when 'all' is among them,
    else the values named, in first-seen order, each once."""

    def parse(text: str) -> list:
        names = [name.strip().lower() for name in text.split(",")]
        for name in names:
            if name != "all" and name not in values:
                raise argparse.ArgumentTypeError(
                    f"unknown {noun} {name!r}; valid: all, {', '.join(values)}"
                )
        if "all" in names:
            return list(values.values())
        return list(dict.fromkeys(values[name] for name in names))

    return parse


_parse_measures = _list_parser("measure", {kind.code: kind for kind in MeasureKind})
_parse_characteristics = _list_parser(
    "characteristic", {c: c for c in PUPIL_CHARACTERISTICS + SCHOOL_CHARACTERISTICS}
)


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
        return float.__repr__  # repr(float(x)) of any float, subclasses too
    return lambda x: f"{float(x):.{precision}f}"


class _Digested:
    """A binary file read through a SHA-256 of the bytes read: a parse
    reads its file once, forward, through ``readinto`` (one loop,
    ``csvio._line_blocks``, reads every cohort and score file), so this is
    the digest of the file."""

    def __init__(self, file: typing.BinaryIO):
        self._file = file
        self.sha256 = hashlib.sha256()

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n


def _parse_input(path: Path, inputs: dict[str, str], parse):
    """``parse`` of the open file, which reads it once, as a stream, so
    that a pipe such as ``<(gunzip -c ...)`` will do; the SHA-256 of the
    bytes it parsed is recorded in ``inputs`` under the path, and a
    CohortError names the file."""
    with path.open("rb") as file:
        source = _Digested(file)
        try:
            result = parse(source)
        except CohortError as exc:
            raise CohortError(f"{path}: {exc}") from exc
    inputs[str(path)] = source.sha256.hexdigest()
    return result


def _write_atomic(path: Path, data: bytes | typing.Iterable[bytes]) -> None:
    """Write ``data``, or its pieces as they are made, to a temp file, then
    rename it to ``path``; a write that fails removes the temp file."""
    tmp = path.with_name(f".tmp.{path.name}")
    try:
        with tmp.open("wb") as file:
            file.writelines([data] if isinstance(data, bytes) else data)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
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
    from .cohort import parse_pupils, parse_schools, validate_cohort

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


@contextlib.contextmanager
def _pupil_fault(args):
    """Name --pupils in a model error: once the cohort is valid, a design,
    fit or score that fails does so on the pupil data."""
    try:
        yield
    except (AnalysisError, DesignError, FitError) as exc:
        raise type(exc)(f"{args.pupils}: {exc}") from exc


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


def _cells(column: list, fmt) -> list[str]:
    """A column's cells, in one pass: ``fmt`` mapped over an all-float
    column, a lookup of each distinct value's ``_cell`` in a column of one
    other type (ids, counts, levels), ``_cell`` of each value of any other."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return list(map(fmt, column))
    if len(kinds) == 1 and not issubclass(kinds.pop(), float):
        # equal values share one cell, which holds as no value is a float
        # (0.0 == -0.0)
        cells = {value: _cell(value, fmt) for value in set(column)}
        return list(map(cells.__getitem__, column))
    return [_cell(value, fmt) for value in column]


def _columns_csv(columns: dict[str, list], fmt) -> bytes:
    """CSV of equal-length columns; the header is their names."""
    return csv_bytes(list(columns), [_cells(column, fmt) for column in columns.values()])


def _rows_csv(rows: list, fmt) -> bytes:
    """CSV of a non-empty list of one row dataclass; the header is its field names."""
    names = [f.name for f in dataclasses.fields(rows[0])]
    return _columns_csv({n: [getattr(row, n) for row in rows] for n in names}, fmt)


def _breakdown_csv(table: BreakdownTable, kinds: list[MeasureKind], fmt) -> bytes:
    rows = table.rows
    columns = {
        "category": [row.category for row in rows],
        "n_pupils": [row.n_pupils for row in rows],
        "n_schools": [row.n_schools for row in rows],
        "percent": [f"{row.percent:.1f}" for row in rows],
    }
    for kind in kinds:
        columns[f"mean_{kind.code}"] = [row.means[kind] for row in rows]
        columns[f"significant_{kind.code}"] = [row.significant[kind] for row in rows]
    notes = "".join(f"# {note}\n" for note in table.footnotes)
    return _columns_csv(columns, fmt) + notes.encode("utf-8")


def _column_parser(tp):
    """The values of a whole column of cells, for a field annotated ``tp``,
    made by C-level ``map``s: the inverse of ``_cell``. A ``str`` column
    holds school ids, stripped and checked as the cohort files' ids are. A
    ValueError names the column's first bad cell."""
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        members = {member.value: member for member in tp}

        def lookup(cells):
            try:
                return list(map(members.__getitem__, cells))
            except KeyError as exc:
                raise ValueError(
                    f"unknown value {exc.args[0]!r}; valid values: {', '.join(members)}"
                ) from None

        return lookup
    if tp is float:

        def floats(cells):
            values = list(map(float, cells))
            if not all(map(math.isfinite, values)):
                bad = next(t for t, v in zip(cells, values) if not math.isfinite(v))
                raise ValueError(f"must be a finite number, got {bad!r}")
            return values

        return floats
    if tp is str:
        encode = FIELD["school_id"].encode

        def ids(cells):
            stripped = list(map(str.strip, cells))
            if all(stripped) and max(map(len, stripped), default=0) <= ID_MAX_CHARS:
                return stripped
            return list(map(encode, stripped))  # raises at the first bad id

        return ids
    return lambda cells: list(map(tp, cells))


_SCORE_NAMES = [f.name for f in dataclasses.fields(SchoolScore)]
_MEASURE = _SCORE_NAMES.index("measure")


def _read_school_scores(path: Path, inputs: dict[str, str]) -> dict[str, list]:
    """Read a school_scores CSV produced by `fit` as columns, keyed by
    :class:`SchoolScore` field name; the first bad row or cell is fatal.

    Each block of rows is converted a column at a time by ``_column_parser``
    (``float`` and ``math.isfinite``, ``int``, a dict lookup for the enums,
    the id rule), and every ``measure`` cell must be the first row's. A block
    that fails (or holds a row of the wrong width) is walked again cell by
    cell, each cell through the same parsers, only to name its first bad row
    or cell, in row order.
    """
    hints = typing.get_type_hints(SchoolScore)
    parsers = [_column_parser(hints[name]) for name in _SCORE_NAMES]

    def fault(rows, row_nos, issues, first) -> CohortError:
        """The first fault in row order of a block that failed."""
        for row_no, row in zip(row_nos, rows):
            if issues and issues[0].row < row_no:
                return CohortError(str(issues[0]))
            for name, parse_cells, text in zip(_SCORE_NAMES, parsers, row):
                try:
                    parse_cells([text])
                except ValueError as exc:
                    return CohortError(f"row {row_no}, column {name}: {exc}")
                if name == "measure" and text != first[1]:
                    return CohortError(
                        f"row {row_no}, column measure: expected {first[1]} as in row {first[0]}, "
                        f"got {text}"
                    )
        raise AssertionError("no fault in a block that failed")

    def parse(source: typing.BinaryIO) -> dict[str, list]:
        issues, columns, first = [], {name: [] for name in _SCORE_NAMES}, None
        for rows, row_nos in read_blocks(source, _SCORE_NAMES, "school_scores CSV", issues):
            # the first row's number and measure cell
            first = first or (row_nos[0], rows[0][_MEASURE])
            cells = list(zip(*rows))
            try:
                if issues and issues[0].row < row_nos[-1]:
                    raise ValueError("a row of the wrong width")
                if cells[_MEASURE].count(first[1]) != len(rows):
                    raise ValueError("mixed measures")
                block = [parse_cells(col) for parse_cells, col in zip(parsers, cells)]
            except ValueError:
                raise fault(rows, row_nos, issues, first) from None
            for column, values in zip(columns.values(), block):
                column += values
        if issues:
            raise CohortError(str(issues[0]))
        return columns

    return _parse_input(path, inputs, parse)


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns (inputs, seed, outputs written, report or None)
# ---------------------------------------------------------------------------


def _cmd_simulate(args, out_dir: Path):
    from .synthgen import GeneratorConfig, generate_population, write_population_csv

    overrides = {}
    inputs = {}
    if args.config is not None:
        config_path = Path(args.config)
        try:
            data = config_path.read_bytes()
            inputs[str(config_path)] = hashlib.sha256(data).hexdigest()
            loaded = json.loads(data.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, not JSON, or an int past Python's digit limit
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
    return inputs, config.seed, sorted(outputs), {"n_clipped": synthetic.n_clipped}


def _measure_tables(args, cohort, kind: MeasureKind, fmt):
    """One measure's coefficient and school-score tables, as CSV bytes, and
    its summary; its design and fit are dropped on return."""
    from .measures import compute_measure
    from .ols import cluster_robust_cov, coefficient_table

    with _pupil_fault(args):
        res = compute_measure(cohort, kind)
        cov = cluster_robust_cov(res.fit, res.design, cohort.school_index)
    tables = {
        f"coefficients_{kind.code}.csv": _rows_csv(coefficient_table(res.fit, cov), fmt),
        f"school_scores_{kind.code}.csv": _columns_csv(res.school_columns, fmt),
    }
    return tables, res.summary


def _cmd_fit(args, out_dir: Path):
    inputs = {}
    cohort, _, _ = _read_cohort(args, inputs, _report_skipped)
    fmt = _formatter(args.precision)
    tables, summaries = {}, []
    # one measure at a time; no file is written until every measure is done
    for kind in args.measures:
        measure_tables, summary = _measure_tables(args, cohort, kind, fmt)
        tables.update(measure_tables)
        summaries.append(summary)
    tables["summary.csv"] = _rows_csv(summaries, fmt)
    for name, data in tables.items():
        _write_atomic(out_dir / name, data)
    return inputs, None, sorted(tables), None


def _cmd_compare(args, out_dir: Path):
    inputs = {}
    a, b = (_read_school_scores(Path(p), inputs) for p in args.scores)
    try:
        comparison = compare_columns(a, b, args.thresholds)
    except AnalysisError as exc:
        raise AnalysisError(f"{args.scores[0]}, {args.scores[1]}: {exc}") from exc
    data = (json.dumps(comparison, indent=2) + "\n").encode("utf-8")
    _write_atomic(out_dir / "comparison.json", data)
    return inputs, None, ["comparison.json"], None


def _cmd_breakdown(args, out_dir: Path):
    from .analysis import breakdown
    from .measures import compute_measure

    inputs = {}
    cohort, _, _ = _read_cohort(args, inputs, _report_skipped)
    with _pupil_fault(args):
        # only each measure's pupil scores are kept
        scores = {kind: compute_measure(cohort, kind).scores for kind in args.measures}
    fmt = _formatter(args.precision)
    # one breakdown at a time; no file is written until every one is done
    tables = {
        f"breakdown_{by}.csv": _breakdown_csv(breakdown(cohort, scores, by), args.measures, fmt)
        for by in args.by
    }
    for name, data in tables.items():
        _write_atomic(out_dir / name, data)
    return inputs, None, sorted(tables), None


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
    p.add_argument("--by", type=_parse_characteristics, required=True,
                   help="comma-separated pupil or school characteristics, or 'all'")
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
        if args.command == "compare" and len(args.scores) != 2:
            parser.error(f"compare: argument --scores: give two files, not {len(args.scores)}")
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
            inputs, seed, outputs, report = args.handler(args, out_dir)
    except (VamkitError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1

    manifest = {
        "command": ["vamkit"] + (argv if argv is not None else sys.argv[1:]),
        "inputs": inputs,
        "seed": seed,
        "version": __version__,
        "outputs": outputs,
        **({"report": report} if report is not None else {}),
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    _write_atomic(out_dir / "manifest.json", (json.dumps(manifest, indent=2) + "\n").encode("utf-8"))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
