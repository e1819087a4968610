"""Pupil/school data model, CSV ingestion and validation.

CSV is the sole ingestion format. Both schemas are flat tables with a fixed,
ordered header, given by the field tables ``PUPIL_FIELDS`` and
``SCHOOL_FIELDS`` (see :mod:`vamkit.categories`). Parsing never raises on
malformed rows: each bad row becomes a :class:`ParseIssue` naming the row,
its first failing column and the reason, and the row is skipped. Structural
problems (undecodable bytes, wrong header) raise :class:`CohortError`.
The CSV reader and writer of other files live in :mod:`vamkit.csvio`,
which needs no numpy; this module turns rows into columns and back. A file
is read and encoded one block at a time by one of two routes, which give
the same columns, dtypes and issues:

- the byte route, for a file that is ASCII and holds no quote, carriage
  return or NUL (every file ``simulate`` writes): numpy finds a block's
  separators and gathers each column's cells into a fixed-width byte
  array, and only lines that may be blank or of the wrong width are split
  in Python;
- the csv route, for every other file: ``csvio.read_blocks`` rows of str.

Either way a parse holds the file's columns and one block, not a Python
string per cell of the file. The writer mirrors the byte route: each block
of rows is put together from one byte array per column, and the only
Python string it makes per cell is an outcome's ``repr``. It writes the
bytes ``csvio.csv_bytes`` writes for the same cells.

Rows are held by column (:class:`Table`): ids as numpy unicode arrays, the
outcome as float64 and every category as a small-int code. Every function
that takes pupils or schools takes a :class:`Table`. :class:`PupilRecord`
and :class:`SchoolRecord` are output-only row views, built from the field
tables and filled from the columns on request; they remain only because the
benchmark under ``perfbench/`` reads them, and go when it reads columns
(ROADMAP items 8 and 9).

The only field allowed to be missing is ``ks2_group`` (empty string). Models
that adjust for prior attainment reject cohorts containing such pupils; the
gap is representable here because real extracts have them.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field, make_dataclass
from functools import cached_property
from typing import BinaryIO, Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .categories import PUPIL_FIELDS, SCHOOL_FIELDS, Field, Kind
from .csvio import _BLOCK_ROWS, _SPECIAL, ParseIssue, _check_header, _fields, read_blocks
from .errors import CohortError, id_list

PUPIL_COLUMNS = tuple(f.name for f in PUPIL_FIELDS)
SCHOOL_COLUMNS = tuple(f.name for f in SCHOOL_FIELDS)


def _row_view(name: str, fields: tuple[Field, ...]) -> type:
    """A frozen dataclass with one attribute per column, in table order. A
    row holds each cell's ``Field.values`` entry: a category's level
    spelling, an int (None where ``ks2_group`` is missing) or a bool."""
    cls = make_dataclass(name, [f.name for f in fields], frozen=True)
    cls.__module__ = __name__
    return cls


PupilRecord = _row_view("PupilRecord", PUPIL_FIELDS)
SchoolRecord = _row_view("SchoolRecord", SCHOOL_FIELDS)


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


def _learn(f: Field, texts, decoded: dict, reasons: dict[str, str]) -> None:
    """Check each spelling not met before in the file with ``Field.encode``."""
    for text in set(texts) - decoded.keys():
        try:
            decoded[text] = f.encode(text.strip())
        except ValueError as exc:
            decoded[text] = np.nan if f.kind is Kind.FLOAT else -1
            reasons[text] = str(exc)


def _faults(rows, texts, reasons: dict[str, str]) -> dict[int, str] | None:
    """Row -> reason for the given rows whose spelling is bad; None when none is."""
    return {int(i): reasons[t] for i, t in zip(rows, texts) if t in reasons} or None


def _encode_column(
    f: Field, raw: tuple[str, ...], decoded: dict, reasons: dict[str, str]
) -> tuple[np.ndarray, dict[int, str] | None]:
    """A block's stored values for one column, and the reason of each of its
    bad cells by row (None when none is bad).

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
    _learn(f, suspects, decoded, reasons)
    if col is None:
        dtype = _DTYPE.get(f.kind, np.int8)
        col = np.fromiter(map(decoded.__getitem__, raw), dtype=dtype, count=len(raw))
    if suspects.isdisjoint(reasons):
        return col, None
    return col, _faults(range(len(raw)), raw, reasons)


# a word of bytes times this odd constant, plus the next word, hashes a cell
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _encode_cells(
    f: Field, cells: np.ndarray, decoded: dict, reasons: dict[str, str]
) -> tuple[np.ndarray, dict[int, str] | None]:
    """:func:`_encode_column` for one column of gathered cells: an (n, width)
    uint8 array, each cell's bytes zero-padded. A category's spellings are
    told apart by a hash of each cell's 8-byte words, checked cell by cell
    against the spelling; a block this does not settle takes the str route.
    """
    n, width = cells.shape
    text = cells.view(f"S{width}")[:, 0]
    if f.kind is Kind.ID:
        # as wide as the longest cell, as np.array(cells, dtype=str) would be
        longest = max(int(cells.any(axis=0).sum()), 1)
        col = np.char.strip(cells[:, :longest].astype(np.uint32).view(f"U{longest}")[:, 0])
        bad = np.flatnonzero(col == "")
        spelt = [t.decode() for t in text[bad].tolist()]
        _learn(f, spelt, decoded, reasons)
        return col, _faults(bad, spelt, reasons)
    if f.kind is Kind.FLOAT:
        raw = text.tolist()
        try:
            col = np.fromiter(map(float, raw), dtype=np.float64, count=n)
        except ValueError:
            return _encode_column(f, [t.decode() for t in raw], decoded, reasons)
        bad = np.flatnonzero(~((col >= f.bounds[0]) & (col <= f.bounds[1])))
        spelt = [raw[i].decode() for i in bad]
        _learn(f, spelt, decoded, reasons)
        return col, _faults(bad, spelt, reasons)
    words = cells.view(np.uint64)
    key = words[:, 0]
    for j in range(1, words.shape[1]):
        key = key * _MIX + words[:, j]
    _, inverse = np.unique(key, return_inverse=True)
    first = np.empty(inverse.max() + 1, dtype=np.intp)
    first[inverse] = np.arange(n)  # a cell of each spelling
    if words.shape[1] > 1 and not (words == words[first[inverse]]).all():
        return _encode_column(f, [t.decode() for t in text.tolist()], decoded, reasons)
    spelt = [t.decode() for t in text[first].tolist()]
    _learn(f, spelt, decoded, reasons)
    col = np.array([decoded[t] for t in spelt], dtype=np.int8)[inverse]
    bad_spelt = np.array([t in reasons for t in spelt])
    if not bad_spelt.any():
        return col, None
    bad = np.flatnonzero(bad_spelt[inverse])
    return col, _faults(bad, [spelt[i] for i in inverse[bad]], reasons)


class _TooWide(Exception):
    """A cell longer than ``_GATHER_CAP``: the file takes the csv route."""


# bytes gathered per cell at most; the csv module's default field limit is
# 131,072 characters, so a cell it would refuse never takes the byte route
_GATHER_CAP = 256
# _HEAD[k, n]: the mask of a little-endian 8-byte word that keeps the bytes
# of word k of a cell n bytes long
_HEAD = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)[
    np.clip(np.arange(_GATHER_CAP + 1) - np.arange(0, _GATHER_CAP, 8)[:, None], 0, 8)
]
# bytes per block of the byte route: about _BLOCK_ROWS lines of a cohort file
_BLOCK_BYTES = 80 * _BLOCK_ROWS
_NEWLINE, _COMMA = ord("\n"), ord(",")
# first bytes that send a line to the Python split: an empty first cell or
# line (a comma, or the line's own newline) or one that str.strip()
# shortens, which might be blank
_RARE_LEAD = np.array([b == _COMMA or chr(b).isspace() for b in range(256)])


def _tokenizable(data: bytes) -> bool:
    """Whether a file is read the same by splitting its lines at commas as
    by the csv module: ASCII, with no quote, carriage return or NUL."""
    return data.isascii() and b"\n" in data and not any(c in data for c in (b'"', b"\r", b"\0"))


def _block_end(data: bytes, start: int) -> int:
    """Where the block that begins at ``start`` ends: past the last newline
    within ``_BLOCK_BYTES``, else past the next one, else at the file's end."""
    stop = start + _BLOCK_BYTES
    if stop >= len(data):
        return len(data)
    return (data.rfind(b"\n", start, stop) + 1) or (data.find(b"\n", stop) + 1) or len(data)


def _byte_blocks(
    data: bytes, names: tuple[str, ...], what: str, issues: list[ParseIssue]
) -> Iterator[tuple[list[np.ndarray], np.ndarray]]:
    """:func:`read_blocks` for a :func:`_tokenizable` file, in numpy: each
    block of whole lines, about ``_BLOCK_BYTES`` long, gives its kept rows'
    cells, one gathered (n, width) array per column, and the rows' 1-based
    numbers.

    A line with as many commas as the header and a first cell that starts
    with neither a comma nor whitespace is a row. Any other line is split
    in Python: skipped if blank, a ``(row)`` issue if of the wrong width,
    else a row. Raises :class:`_TooWide` for a cell longer than
    ``_GATHER_CAP``.
    """
    width = len(names)
    head = data.index(b"\n")
    header = data[:head].decode()
    _check_header(header.split(",") if header else [], names, what)
    buf = np.frombuffer(data, dtype=np.uint8)
    start, row_no = head + 1, 1
    while start < len(data):
        end = _block_end(data, start)
        block = buf[start:end]
        # the block, a newline that ends a last line without one, and zeros
        # under the widest window a cell is gathered through
        padded = np.zeros(block.size + _GATHER_CAP + 8, dtype=np.uint8)
        padded[: block.size] = block
        padded[block.size] = _NEWLINE
        seps = np.flatnonzero((block == _COMMA) | (block == _NEWLINE))
        if block[-1] != _NEWLINE:
            seps = np.append(seps, block.size)
        line_seps = np.flatnonzero(padded[seps] == _NEWLINE)  # each line's last separator
        ends = seps[line_seps]
        begins = np.concatenate(([0], ends[:-1] + 1))
        regular = np.diff(line_seps, prepend=-1) == width  # width - 1 commas and a newline
        keep = regular & ~_RARE_LEAD[padded[begins]]
        for i in np.flatnonzero(~keep):
            line = block[begins[i] : ends[i]].tobytes().decode()
            row = line.split(",") if line else []
            if any(len(cell) > _GATHER_CAP for cell in row):
                raise _TooWide
            if not any(cell.strip() for cell in row):
                continue  # blank: skipped but counted
            if regular[i]:
                keep[i] = True
            else:
                reason = f"expected {width} fields, got {len(row)}"
                issues.append(ParseIssue(row_no + int(i), "(row)", reason))
        rows = np.flatnonzero(keep)
        if rows.size:
            if rows.size * width == seps.size:  # every line is a row
                stops = seps.reshape(-1, width)
            else:
                stops = seps[line_seps[rows, None] + np.arange(1 - width, 1)]
            firsts = np.empty_like(stops)
            firsts[:, 0] = begins[rows]
            firsts[:, 1:] = stops[:, :-1] + 1
            sizes = stops - firsts
            cells = []
            for j in range(width):
                w = int(sizes[:, j].max())
                if w > _GATHER_CAP:
                    raise _TooWide
                w = -(-max(w, 1) // 8) * 8  # whole 8-byte words
                col = as_strided(padded, shape=(block.size + 1, w), strides=(1, 1))[firsts[:, j]]
                # zero each cell's bytes past its end, a word at a time
                words = col.view("<u8")
                for k in range(int(sizes[:, j].min()) // 8, w // 8):
                    words[:, k] &= _HEAD[k, sizes[:, j]]
                cells.append(col)
            yield cells, row_no + rows
        row_no += ends.size
        start = end


def _columns(
    fields: tuple[Field, ...], blocks: Iterator, issues: list[ParseIssue], encode
) -> tuple[Table, list[ParseIssue]]:
    """Encode blocks of raw cells into a Table; each bad row is skipped with
    one issue, under its first failing column in column order.

    Each block is one raw column per field and the rows' numbers; ``encode``
    is :func:`_encode_column` or :func:`_encode_cells`. Each column's kept
    values are joined at the end, and its blocks freed as it is joined.
    """
    spellings = [({}, {}) for _ in fields]  # per column: decoded, reasons
    # a zero-length chunk first types a column that gets no rows
    chunks = [[np.array((), dtype=_DTYPE.get(f.kind, np.int8))] for f in fields]
    for raws, row_nos in blocks:
        failed = np.zeros(len(row_nos), dtype=bool)
        block = []
        for f, raw, (decoded, reasons) in zip(fields, raws, spellings):
            col, why = encode(f, raw, decoded, reasons)
            if why:
                bad = np.zeros(len(row_nos), dtype=bool)
                bad[list(why)] = True
                for i in np.flatnonzero(bad & ~failed):
                    issues.append(ParseIssue(int(row_nos[i]), f.name, why[i]))
                failed |= bad
            block.append(col)
        for chunk, col in zip(chunks, block):
            chunk.append(col[~failed])
    issues.sort(key=lambda issue: issue.row)
    columns = {}
    for f, chunk in zip(fields, chunks):
        columns[f.name] = np.concatenate(chunk)
        chunk.clear()
    return Table(fields, columns), issues


def _parse_bytes(
    data: bytes, fields: tuple[Field, ...], what: str
) -> tuple[Table, list[ParseIssue]]:
    """The byte route: a :func:`_tokenizable` file cut into cells by numpy."""
    issues: list[ParseIssue] = []
    names = tuple(f.name for f in fields)
    return _columns(fields, _byte_blocks(data, names, what, issues), issues, _encode_cells)


def _parse_text(
    data: bytes, fields: tuple[Field, ...], what: str
) -> tuple[Table, list[ParseIssue]]:
    """The csv route: any file, read by the csv module into blocks of str."""
    issues: list[ParseIssue] = []
    names = tuple(f.name for f in fields)
    rows = ((zip(*rows), row_nos) for rows, row_nos in read_blocks(data, names, what, issues))
    return _columns(fields, rows, issues, _encode_column)


def _parse_table(
    source: BinaryIO | bytes, fields: tuple[Field, ...], what: str
) -> tuple[Table, list[ParseIssue]]:
    """Read a CSV into columns; each bad row is skipped with one issue.

    A :func:`_tokenizable` file takes the byte route unless a cell is longer
    than ``_GATHER_CAP``; every other file takes the csv route. Both routes
    give the same columns, dtypes and issues.
    """
    data = source if isinstance(source, bytes) else source.read()
    if _tokenizable(data):
        try:
            return _parse_bytes(data, fields, what)
        except _TooWide:
            pass
    return _parse_text(data, fields, what)


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


def unique_inverse(ids) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)``, sorting only the first id of
    each run of equal ids: one per school when pupils come grouped by
    school, as in every file vamkit writes."""
    ids = np.asarray(ids)
    if not ids.size:
        return np.unique(ids, return_inverse=True)
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    kept, inverse = np.unique(ids[starts], return_inverse=True)
    return kept, np.repeat(inverse, np.diff(starts, append=ids.size))


def _check_unique(ids: np.ndarray, name: str, what: str) -> None:
    if (ids[1:] > ids[:-1]).all():
        return  # strictly ascending, as files vamkit writes are: no sort needed
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
    kept, school_index = unique_inverse(pupils["school_id"])
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


# The writer mirrors the byte route: a block's cells of one column are an
# (n, width) uint8 array, each cell's bytes followed by _PAD, a byte no
# UTF-8 text holds, up to the width.
_PAD = 0xFF
# bytes that make a cell quoted, as csvio._fields quotes
_QUOTED = np.zeros(256, dtype=bool)
_QUOTED[[ord(c) for c in _SPECIAL]] = True


def _pad(cells: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Overwrite each cell's bytes past its length with ``_PAD``."""
    if lengths.size and lengths.min() < cells.shape[1]:
        cells[np.arange(cells.shape[1]) >= lengths[:, None]] = _PAD
    return cells


def _text_cells(texts: list[str]) -> np.ndarray:
    """Cells of a column of str, quoted as ``csv_bytes`` quotes them and
    UTF-8 encoded."""
    data = [t.encode() for t in _fields(texts)]
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    width = max(int(lengths.max(initial=0)), 1)
    cells = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return _pad(cells, lengths)


def _id_cells(ids: np.ndarray) -> np.ndarray:
    """:func:`_text_cells` of a block of ids: their code units when every
    cell is ASCII and needs no quotes, else cell by cell."""
    ids = np.ascontiguousarray(ids, dtype=str)
    units = ids.view(np.uint32).reshape(ids.size, -1)
    if units.max(initial=0) < 128:
        cells = units.astype(np.uint8)
        if not _QUOTED[cells].any():
            # cut at each str's length, not at its first NUL: a cell may hold one
            return _pad(cells, np.char.str_len(ids))
    return _text_cells(ids.tolist())


def _float_cells(values: np.ndarray) -> np.ndarray:
    """Cells of a block of numbers: each one's shortest round-trip repr, but
    an integer value without its ".0"."""
    values = np.asarray(values, dtype=np.float64)
    if not values.size:
        return np.zeros((0, 1), dtype=np.uint8)
    # a list's repr is each float's repr between "[", ", " and "]"
    text = np.frombuffer(repr(values.tolist()).encode(), dtype=np.uint8)
    ends = np.append(np.flatnonzero(text == _COMMA), text.size - 1)
    starts = np.concatenate(([1], ends[:-1] + 2))
    lengths = ends - starts
    whole = np.flatnonzero(np.isfinite(values) & (values == np.trunc(values)))
    ints = [str(int(v)).encode() for v in values[whole].tolist()]
    width = max(int(lengths.max()), max(map(len, ints), default=0))
    padded = np.zeros(text.size + width, dtype=np.uint8)
    padded[: text.size] = text
    cells = as_strided(padded, shape=(text.size, width), strides=(1, 1))[starts]
    if ints:
        cells[whole] = np.array(ints, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
        lengths[whole] = list(map(len, ints))
    return _pad(cells, lengths)


def _join_rows(columns: list[np.ndarray]) -> bytes:
    """CSV lines from a block's cells: each row's cells and separators side
    by side, less the padding."""
    line = np.empty((len(columns[0]), sum(cells.shape[1] + 1 for cells in columns)), np.uint8)
    at = 0
    for cells in columns:
        line[:, at : at + cells.shape[1]] = cells
        at += cells.shape[1]
        line[:, at] = _COMMA
        at += 1
    line[:, -1] = _NEWLINE
    line = line.ravel()
    return line[line != _PAD].tobytes()


def _serialize(table: Table) -> bytes:
    """A Table as the CSV bytes ``csv_bytes`` writes for its cells' text, a
    block of ``_BLOCK_ROWS`` rows at a time. A category's cells are gathered
    from a table of its spellings by code (code -1: the empty cell)."""
    fields = table.fields
    spellings = {
        f.name: _text_cells(list(f.spellings + ("",))) for f in fields if f.kind not in _DTYPE
    }
    buf = io.BytesIO()
    buf.write((",".join(_fields([f.name for f in fields])) + "\n").encode())
    for start in range(0, len(table), _BLOCK_ROWS):
        block = []
        for f in fields:
            col = table[f.name][start : start + _BLOCK_ROWS]
            if f.kind is Kind.ID:
                block.append(_id_cells(col))
            elif f.kind is Kind.FLOAT:
                block.append(_float_cells(col))
            else:
                block.append(spellings[f.name][col])
        buf.write(_join_rows(block))
    return buf.getvalue()


def serialize_pupils(pupils: Table) -> bytes:
    """Write pupils as canonical CSV bytes (inverse of parse_pupils)."""
    return _serialize(pupils)


def serialize_schools(schools: Table) -> bytes:
    """Write schools as canonical CSV bytes (inverse of parse_schools)."""
    return _serialize(schools)
