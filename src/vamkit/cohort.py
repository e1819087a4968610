"""Pupil/school data model, CSV ingestion and validation.

CSV is the sole ingestion format. Both schemas are flat tables with a fixed,
ordered header, given by the field tables ``PUPIL_FIELDS`` and
``SCHOOL_FIELDS`` (see :mod:`vamkit.categories`). Parsing never raises on
malformed rows: each bad row becomes a :class:`ParseIssue` naming the row,
its first failing column and the reason, and the row is skipped. Structural
problems (undecodable bytes, wrong header) raise :class:`CohortError`.

Rows are held by column (:class:`Table`): ids as numpy unicode arrays, the
outcome as float64 and every category as a small-int code. Every function
that takes pupils or schools takes a :class:`Table`. :class:`PupilRecord`
and :class:`SchoolRecord` are output-only row views, built from the columns
on request; they remain only because the benchmark under ``perfbench/``
reads them, and go when it reads columns (ROADMAP items 3 and 4).

The only field allowed to be missing is ``ks2_group`` (empty string). Models
that adjust for prior attainment reject cohorts containing such pupils; the
gap is representable here because real extracts have them.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .categories import (
    PUPIL_FIELDS,
    SCHOOL_FIELDS,
    Admissions,
    AgeRange,
    Ethnicity,
    Field,
    FirstLanguage,
    Gender,
    Kind,
    Month,
    Region,
    Religion,
    SchoolGender,
    SchoolType,
    Sen,
)
from .errors import CohortError

PUPIL_COLUMNS = tuple(f.name for f in PUPIL_FIELDS)
SCHOOL_COLUMNS = tuple(f.name for f in SCHOOL_FIELDS)


@dataclass(frozen=True)
class PupilRecord:
    """One pupil's outcome, prior attainment group and background characteristics."""

    pupil_id: str
    school_id: str
    attainment8_total: float
    ks2_group: int | None
    month_of_birth: Month
    gender: Gender
    ethnicity: Ethnicity
    first_language: FirstLanguage
    sen: Sen
    fsm: bool
    idaci_decile: int


@dataclass(frozen=True)
class SchoolRecord:
    """One school's attributes, all drawn from closed category sets."""

    school_id: str
    region: Region
    school_type: SchoolType
    admissions: Admissions
    age_range: AgeRange
    school_gender: SchoolGender
    religion: Religion
    school_idaci_decile: int


@dataclass(frozen=True)
class ParseIssue:
    """A skipped CSV row: 1-based data row number, offending column, reason."""

    row: int
    column: str
    reason: str

    def __str__(self) -> str:
        return f"row {self.row}, column {self.column}: {self.reason}"


_DTYPE = {Kind.ID: str, Kind.FLOAT: np.float64}  # every other kind: int8 codes
_RECORD = {PUPIL_FIELDS: PupilRecord, SCHOOL_FIELDS: SchoolRecord}


@dataclass(frozen=True, eq=False)
class Table:
    """Rows of one schema held as equal-length numpy columns, keyed by name."""

    fields: tuple[Field, ...]
    columns: dict[str, np.ndarray] = field(repr=False)

    def __len__(self) -> int:
        return len(self.columns[self.fields[0].name])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def take(self, rows) -> Table:
        """The given rows, in the given order."""
        return Table(self.fields, {name: col[rows] for name, col in self.columns.items()})

    def replace(self, **columns: np.ndarray) -> Table:
        return Table(self.fields, {**self.columns, **columns})

    def records(self) -> tuple:
        """Row views: one PupilRecord or SchoolRecord per row."""
        cells = []
        for f in self.fields:
            col = self.columns[f.name].tolist()
            if f.kind not in _DTYPE:
                col = list(map((f.values + (None,)).__getitem__, col))
            cells.append(col)
        record = _RECORD[self.fields]
        return tuple(record(*row) for row in zip(*cells))


@dataclass(frozen=True, eq=False)
class ValidatedCohort:
    """Cross-referenced pupil and school columns, immutable after construction.

    Every pupil's school_id resolves to a school; every school has at least
    one pupil; pupil ids are unique. Pupils keep their input order; schools
    are sorted by school_id, and ``school_index`` gives each pupil's row in
    ``school_table``, so school k is the k-th smallest school_id.
    """

    pupil_table: Table
    school_table: Table
    school_index: np.ndarray
    n_pupils = property(lambda self: len(self.pupil_table))
    n_schools = property(lambda self: len(self.school_table))

    @cached_property
    def pupils(self) -> tuple[PupilRecord, ...]:
        """Row views of the pupils, in cohort order."""
        return self.pupil_table.records()

    @cached_property
    def schools(self) -> tuple[SchoolRecord, ...]:
        """Row views of the schools, in school_id order."""
        return self.school_table.records()


def _decode(source: BinaryIO | bytes) -> io.TextIOWrapper:
    """A text stream over the input's bytes, once they are known to be UTF-8.

    The whole input is decoded once as the check, so an error names its
    byte position in the file; the text is then decoded again as it is read,
    which holds no copy of it. Only a private ``BytesIO`` is wrapped: a
    ``TextIOWrapper`` closes what it wraps when it is collected.
    """
    raw = source if isinstance(source, bytes) else source.read()
    try:
        raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CohortError(f"input is not valid UTF-8: {exc}") from exc
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")


def _check_header(row: Sequence[str] | None, expected: Sequence[str], what: str) -> None:
    if row is None:
        raise CohortError(f"{what} file is empty: expected header {','.join(expected)}")
    got = [c.strip() for c in row]
    if got != list(expected):
        missing = [c for c in expected if c not in got]
        extra = [c for c in got if c not in expected]
        detail = []
        if missing:
            detail.append(f"missing columns: {', '.join(missing)}")
        if extra:
            detail.append(f"unexpected columns: {', '.join(extra)}")
        duplicated = [c for c in dict.fromkeys(got) if got.count(c) > 1]
        if duplicated:
            detail.append(f"duplicate columns: {', '.join(duplicated)}")
        if not detail:
            detail.append("columns out of order")
        raise CohortError(
            f"{what} header mismatch ({'; '.join(detail)}); "
            f"expected exactly: {','.join(expected)}"
        )


def _encode_column(f: Field, raw: np.ndarray) -> tuple[np.ndarray, dict[str, str]]:
    """A column's stored values, and the reason for each bad raw spelling.

    Each spelling that may be bad is checked by ``Field.encode`` once; ids
    and numbers that pass a vectorised check skip it. Bad cells hold a
    placeholder.
    """
    col, suspects = None, raw
    if f.kind is Kind.ID:
        col = np.char.strip(raw.astype(str))
        suspects = raw[col == ""]
    elif f.kind is Kind.FLOAT:
        try:
            col = np.fromiter(map(float, raw), dtype=np.float64, count=len(raw))
        except ValueError:
            pass  # some cell is not a number: check every spelling
        else:
            suspects = raw[~((col >= f.bounds[0]) & (col <= f.bounds[1]))]
    decoded, reasons = {}, {}
    for text in set(suspects):
        try:
            decoded[text] = f.encode(text.strip())
        except ValueError as exc:
            decoded[text] = np.nan if f.kind is Kind.FLOAT else -1
            reasons[text] = str(exc)
    if col is None:
        dtype = _DTYPE.get(f.kind, np.int8)
        col = np.fromiter(map(decoded.__getitem__, raw), dtype=dtype, count=len(raw))
    return col, reasons


def read_rows(
    source: BinaryIO | bytes, names: Sequence[str], what: str
) -> tuple[list[tuple[str, ...]], list[int], list[ParseIssue]]:
    """The rows of a CSV whose header is exactly ``names``, their 1-based
    numbers (blank rows are skipped but counted) and an issue for each row of
    the wrong width. Bad bytes, header or quoting raise :class:`CohortError`.
    """
    width = len(names)
    issues: list[ParseIssue] = []
    # tuples, not the reader's lists: the cyclic GC untracks a tuple of str,
    # but rescans every kept list on each pass
    rows: list[tuple[str, ...]] = []
    row_nos: list[int] = []
    with _decode(source) as text:
        reader = csv.reader(text)
        try:
            _check_header(next(reader, None), names, what)
            for row_no, row in enumerate(reader, start=1):
                # blank rows are skipped; a non-blank first cell settles it quickly
                if not (row and row[0].strip()) and not any(cell.strip() for cell in row):
                    continue
                if len(row) != width:
                    reason = f"expected {width} fields, got {len(row)}"
                    issues.append(ParseIssue(row_no, "(row)", reason))
                    continue
                rows.append(tuple(row))
                row_nos.append(row_no)
        except csv.Error as exc:
            raise CohortError(f"{what} is malformed: {exc}") from exc
    return rows, row_nos, issues


def _parse_table(
    source: BinaryIO | bytes, fields: tuple[Field, ...], what: str
) -> tuple[Table, list[ParseIssue]]:
    """Read a CSV into columns; each bad row is skipped with one issue.

    A row is reported under its first failing column in column order.
    """
    width = len(fields)
    rows, row_nos, issues = read_rows(source, tuple(f.name for f in fields), what)
    cells = np.array(rows, dtype=object).reshape(len(rows), width)
    failed = np.zeros(len(rows), dtype=bool)
    columns = {}
    for j, f in enumerate(fields):
        raw = cells[:, j]
        columns[f.name], reasons = _encode_column(f, raw)
        if reasons:
            bad = np.fromiter(map(reasons.__contains__, raw), dtype=bool, count=len(raw))
            for i in np.flatnonzero(bad & ~failed):
                issues.append(ParseIssue(row_nos[i], f.name, reasons[raw[i]]))
            failed |= bad
    issues.sort(key=lambda issue: issue.row)
    return Table(fields, columns).take(~failed), issues


def parse_pupils(source: BinaryIO | bytes) -> tuple[Table, list[ParseIssue]]:
    """Parse a pupil CSV byte stream into columns plus row-level issues.

    Well-formed rows are kept; malformed rows are skipped with an issue. A
    missing or reordered header is fatal (:class:`CohortError`).
    """
    return _parse_table(source, PUPIL_FIELDS, "pupil CSV")


def parse_schools(source: BinaryIO | bytes) -> tuple[Table, list[ParseIssue]]:
    """Parse a school CSV byte stream; same contract as :func:`parse_pupils`."""
    return _parse_table(source, SCHOOL_FIELDS, "school CSV")


def _fault(message: str, *inputs: str) -> CohortError:
    """A CohortError tagged with the ``validate_cohort`` argument(s) at fault."""
    exc = CohortError(message)
    exc.inputs = inputs
    return exc


def _check_unique(ids: np.ndarray, name: str, what: str) -> None:
    unique, counts = np.unique(ids, return_counts=True)
    if unique.size != ids.size:
        raise _fault(f"duplicate {name} values: {', '.join(unique[counts > 1].tolist())}", what)


def validate_cohort(pupils: Table, schools: Table) -> ValidatedCohort:
    """Cross-reference parsed pupils and schools into an immutable cohort.

    Schools with zero pupils are dropped with a warning. An empty cohort,
    unresolvable school_ids or duplicate ids are fatal; the
    :class:`CohortError` names the argument(s) at fault in ``inputs``.
    """
    if not len(pupils):
        raise _fault("cohort has no pupils", "pupils")
    _check_unique(pupils["pupil_id"], "pupil_id", "pupils")
    school_ids = schools["school_id"]
    _check_unique(school_ids, "school_id", "schools")

    # kept: the referenced school ids, sorted; school_index: each pupil's position in it
    kept, school_index = np.unique(pupils["school_id"], return_inverse=True)
    unresolved = np.setdiff1d(kept, school_ids).tolist()
    if unresolved:
        message = f"pupils reference unknown school_id values: {', '.join(unresolved)}"
        raise _fault(message, "pupils", "schools")
    empty = np.setdiff1d(school_ids, kept).tolist()
    if empty:
        warnings.warn(
            f"dropping {len(empty)} school(s) with no pupils: {', '.join(empty)}",
            stacklevel=2,
        )

    by_id = np.argsort(school_ids, kind="stable")
    rows = by_id[np.searchsorted(school_ids[by_id], kept)]
    return ValidatedCohort(pupils, schools.take(rows), school_index)


def _num(value: float) -> str:
    """Shortest exact decimal form; integers without trailing .0."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def csv_bytes(header: Iterable[str], rows: Iterable[Iterable]) -> bytes:
    """UTF-8 CSV with "\\n" line ends; a cell is quoted only where CSV needs it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _serialize(table: Table) -> bytes:
    cells = []
    for f in table.fields:
        col = table[f.name].tolist()
        if f.kind is Kind.FLOAT:
            col = list(map(_num, col))
        elif f.kind is not Kind.ID:
            col = list(map((f.spellings + ("",)).__getitem__, col))
        cells.append(col)
    return csv_bytes((f.name for f in table.fields), zip(*cells))


def serialize_pupils(pupils: Table) -> bytes:
    """Write pupils as canonical CSV bytes (inverse of parse_pupils)."""
    return _serialize(pupils)


def serialize_schools(schools: Table) -> bytes:
    """Write schools as canonical CSV bytes (inverse of parse_schools)."""
    return _serialize(schools)
