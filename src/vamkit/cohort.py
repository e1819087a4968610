"""Pupil/school data model, CSV ingestion and validation.

CSV is the sole ingestion format. Both schemas are flat tables with a fixed,
ordered header, given by the field tables ``PUPIL_FIELDS`` and
``SCHOOL_FIELDS`` (see :mod:`vamkit.categories`). Parsing never raises on
malformed rows: each bad row becomes a :class:`ParseIssue` naming the row,
its first failing column and the reason, and the row is skipped. Structural
problems (undecodable bytes, wrong header) raise :class:`CohortError`.
The CSV reader and writer themselves live in :mod:`vamkit.csvio`, which
needs no numpy; this module turns rows into columns and back. A file is
encoded one block of rows at a time, so a parse holds the file's columns
and one block of Python strings, not a string per cell of the file.

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

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import BinaryIO

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
from .csvio import ParseIssue, csv_bytes, read_blocks
from .errors import CohortError, id_list

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


def _encode_column(
    f: Field, raw: tuple[str, ...], decoded: dict, reasons: dict[str, str]
) -> tuple[np.ndarray, np.ndarray | None]:
    """A block's stored values for one column, and which of its cells are
    bad (None when none is).

    ``decoded`` and ``reasons`` map each raw spelling met so far in the file
    to its stored value and, if it is bad, its reason; a spelling not yet in
    them is checked by ``Field.encode`` once. Ids and numbers that pass a
    vectorised check skip it. Bad cells hold a placeholder.
    """
    col, suspects = None, raw
    if f.kind is Kind.ID:
        col = np.char.strip(np.array(raw, dtype=str))
        suspects = [raw[i] for i in np.flatnonzero(col == "")]
    elif f.kind is Kind.FLOAT:
        try:
            col = np.fromiter(map(float, raw), dtype=np.float64, count=len(raw))
        except ValueError:
            pass  # some cell is not a number: check every spelling
        else:
            ok = (col >= f.bounds[0]) & (col <= f.bounds[1])
            suspects = [raw[i] for i in np.flatnonzero(~ok)]
    suspects = set(suspects)
    for text in suspects - decoded.keys():
        try:
            decoded[text] = f.encode(text.strip())
        except ValueError as exc:
            decoded[text] = np.nan if f.kind is Kind.FLOAT else -1
            reasons[text] = str(exc)
    if col is None:
        dtype = _DTYPE.get(f.kind, np.int8)
        col = np.fromiter(map(decoded.__getitem__, raw), dtype=dtype, count=len(raw))
    if suspects.isdisjoint(reasons):
        return col, None
    return col, np.fromiter(map(reasons.__contains__, raw), dtype=bool, count=len(raw))


def _parse_table(
    source: BinaryIO | bytes, fields: tuple[Field, ...], what: str
) -> tuple[Table, list[ParseIssue]]:
    """Read a CSV into columns; each bad row is skipped with one issue.

    A row is reported under its first failing column in column order. The
    rows are encoded a block at a time and each column's kept values are
    joined at the end; each column's spellings are checked once per file.
    """
    issues: list[ParseIssue] = []
    spellings = [({}, {}) for _ in fields]  # per column: decoded, reasons
    # a zero-length chunk first types a column that gets no rows
    chunks = [[np.array((), dtype=_DTYPE.get(f.kind, np.int8))] for f in fields]
    for rows, row_nos in read_blocks(source, tuple(f.name for f in fields), what, issues):
        failed = np.zeros(len(rows), dtype=bool)
        block = []
        for f, raw, (decoded, reasons) in zip(fields, zip(*rows), spellings):
            col, bad = _encode_column(f, raw, decoded, reasons)
            if bad is not None:
                for i in np.flatnonzero(bad & ~failed):
                    issues.append(ParseIssue(row_nos[i], f.name, reasons[raw[i]]))
                failed |= bad
            block.append(col)
        for chunk, col in zip(chunks, block):
            chunk.append(col[~failed])
    issues.sort(key=lambda issue: issue.row)
    columns = {f.name: np.concatenate(chunk) for f, chunk in zip(fields, chunks)}
    return Table(fields, columns), issues


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
        raise _fault(f"duplicate {name} values: {id_list(unique[counts > 1].tolist())}", what)


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
        message = f"pupils reference unknown school_id values: {id_list(unresolved)}"
        raise _fault(message, "pupils", "schools")
    empty = np.setdiff1d(school_ids, kept).tolist()
    if empty:
        warnings.warn(
            f"dropping {len(empty)} school(s) with no pupils: {id_list(empty)}",
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


def _serialize(table: Table) -> bytes:
    cells = []
    for f in table.fields:
        col = table[f.name].tolist()
        if f.kind is Kind.FLOAT:
            col = list(map(_num, col))
        elif f.kind is not Kind.ID:
            col = list(map((f.spellings + ("",)).__getitem__, col))
        cells.append(col)
    return csv_bytes([f.name for f in table.fields], cells)


def serialize_pupils(pupils: Table) -> bytes:
    """Write pupils as canonical CSV bytes (inverse of parse_pupils)."""
    return _serialize(pupils)


def serialize_schools(schools: Table) -> bytes:
    """Write schools as canonical CSV bytes (inverse of parse_schools)."""
    return _serialize(schools)
