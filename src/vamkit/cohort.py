"""Pupil/school data model, CSV ingestion and validation.

CSV is the sole ingestion format. Both schemas are flat tables with a fixed,
ordered header, given by the field tables ``PUPIL_FIELDS`` and
``SCHOOL_FIELDS`` (see :mod:`vamkit.categories`). Parsing never raises on
malformed rows: each bad row becomes a :class:`ParseIssue` naming the row,
its first failing column and the reason, and the row is skipped. Structural
problems (undecodable bytes, wrong header) raise :class:`CohortError`.

Rows are held by column (:class:`Table`): ids as numpy unicode arrays, the
outcome as float64 and every category as a small-int code.
:class:`PupilRecord` and :class:`SchoolRecord` are row views, built from the
columns on request.

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


def _as_table(rows: Table | Iterable, fields: tuple[Field, ...]) -> Table:
    """A parsed table as it is; records (hand-built cohorts) converted to one."""
    if isinstance(rows, Table):
        return rows
    rows = list(rows)
    columns = {}
    for f in fields:
        values = [getattr(r, f.name) for r in rows]
        if f.kind in _DTYPE:
            columns[f.name] = np.array(values, dtype=_DTYPE[f.kind])
        else:
            # a value's position in (None, *f.values) is its code + 1
            codes = map(((None,) + f.values).index, values)
            columns[f.name] = np.fromiter(codes, dtype=np.int8, count=len(rows)) - 1
    return Table(fields, columns)


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
    n_pupils: int
    n_schools: int

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


def _parse_table(
    source: BinaryIO | bytes, fields: tuple[Field, ...], what: str
) -> tuple[Table, list[ParseIssue]]:
    """Read a CSV into columns; each bad row is skipped with one issue.

    A row is reported under its first failing column in column order.
    """
    names = tuple(f.name for f in fields)
    width = len(names)
    issues: list[ParseIssue] = []
    rows: list[list[str]] = []
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
                rows.append(row)
                row_nos.append(row_no)
        except csv.Error as exc:
            raise CohortError(f"{what} is malformed: {exc}") from exc

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


def _check_unique(ids: np.ndarray, name: str) -> None:
    unique, counts = np.unique(ids, return_counts=True)
    if unique.size != ids.size:
        raise CohortError(f"duplicate {name} values: {', '.join(unique[counts > 1].tolist())}")


def validate_cohort(
    pupils: Table | Iterable[PupilRecord], schools: Table | Iterable[SchoolRecord]
) -> ValidatedCohort:
    """Cross-reference parsed pupils and schools into an immutable cohort.

    Takes the parsers' tables, or sequences of records. Schools with zero
    pupils are dropped with a warning. Unresolvable school_ids or duplicate
    ids are fatal.
    """
    pupils = _as_table(pupils, PUPIL_FIELDS)
    schools = _as_table(schools, SCHOOL_FIELDS)
    if not len(pupils):
        raise CohortError("cohort has no pupils")
    _check_unique(pupils["pupil_id"], "pupil_id")
    school_ids = schools["school_id"]
    _check_unique(school_ids, "school_id")

    # kept: the referenced school ids, sorted; school_index: each pupil's position in it
    kept, school_index = np.unique(pupils["school_id"], return_inverse=True)
    unresolved = np.setdiff1d(kept, school_ids).tolist()
    if unresolved:
        raise CohortError(f"pupils reference unknown school_id values: {', '.join(unresolved)}")
    empty = np.setdiff1d(school_ids, kept).tolist()
    if empty:
        warnings.warn(
            f"dropping {len(empty)} school(s) with no pupils: {', '.join(empty)}",
            stacklevel=2,
        )

    by_id = np.argsort(school_ids, kind="stable")
    rows = by_id[np.searchsorted(school_ids[by_id], kept)]
    return ValidatedCohort(
        pupil_table=pupils,
        school_table=schools.take(rows),
        school_index=school_index,
        n_pupils=len(pupils),
        n_schools=kept.size,
    )


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


def _serialize(rows: Table | Iterable, fields: tuple[Field, ...]) -> bytes:
    table = _as_table(rows, fields)
    cells = []
    for f in fields:
        col = table[f.name].tolist()
        if f.kind is Kind.FLOAT:
            col = list(map(_num, col))
        elif f.kind is not Kind.ID:
            col = list(map((f.spellings + ("",)).__getitem__, col))
        cells.append(col)
    return csv_bytes((f.name for f in fields), zip(*cells))


def serialize_pupils(pupils: Table | Iterable[PupilRecord]) -> bytes:
    """Write pupils as canonical CSV bytes (inverse of parse_pupils)."""
    return _serialize(pupils, PUPIL_FIELDS)


def serialize_schools(schools: Table | Iterable[SchoolRecord]) -> bytes:
    """Write schools as canonical CSV bytes (inverse of parse_schools)."""
    return _serialize(schools, SCHOOL_FIELDS)
