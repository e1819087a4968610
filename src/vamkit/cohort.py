"""Pupil/school data model, CSV ingestion and validation.

CSV is the sole ingestion format. Both schemas are flat tables with a fixed,
ordered header, given by the field tables ``PUPIL_FIELDS`` and
``SCHOOL_FIELDS`` (see :mod:`vamkit.categories`). Parsing never raises on
malformed rows: each bad row becomes a :class:`ParseIssue` naming the row,
its first failing column and the reason, and the row is skipped. Structural
problems (undecodable bytes, wrong header) raise :class:`CohortError`.
The CSV reader and writer of other files live in :mod:`vamkit.csvio`,
which needs no numpy; this module turns rows into columns and back. One
loop, ``csvio._line_blocks``, reads every file's bytes, a block of whole
lines at a time into one reused buffer. Each block is encoded by one of
two routes, which give the same columns, dtypes and issues:

- the byte route, for a block that is ``csvio._tokenizable``: ASCII,
  with no quote, carriage return or NUL (every file ``simulate`` writes).
  numpy finds a block's separators, applies the csv route's line rules to
  the bytes (blank lines skipped, wrong-width lines an issue) and gathers
  each column's cells into a fixed-width byte array; a column with a cell
  longer than the gather's cap is cut into str at the same offsets
  instead. A category column is coded by looking its cells up in a table
  of the file's good spellings (:class:`_SpellingTable`), and only a
  block with a spelling the table lacks is sorted;
- the csv route, ``csvio.read_blocks``, which gives rows of str, from the
  line of the first byte the byte route cannot cut: the byte route keeps
  the columns it has made and hands the csv route the rest of that block,
  then the rest of the same loop's blocks.

Either way the file is read once, forward, with no seek, so a pipe will
do, and a parse holds the file's columns and one block, not the file's
bytes or a Python string per cell. Each column is one array that grows
in place as blocks are encoded. The writer, :func:`serialize_blocks`,
makes a block of rows' cells as str, a column at a time, and joins them
with the line joiner of ``csvio.csv_bytes``, so every file vamkit writes
goes through one CSV writer; a cohort file is made a block at a time.

Rows are held by column (:class:`Table`): ids as fixed-width UTF-8 bytes
(numpy ``S``, one byte per ASCII character), the outcome as float64 and
every category as a small-int code. UTF-8 byte order is code-point order,
so ids sort as their text does. An id is text only at the edges:
:func:`decode_ids` gives a column as a list of str for the row views, the
school scores and every message that names ids. Every function that takes
pupils or schools takes a :class:`Table`. :class:`PupilRecord`
and :class:`SchoolRecord` are output-only row views: named tuples built
from the field tables and filled from the columns on request, with no
Python call per row: each category column is read by one ``np.take`` of
its field's values. They remain only because the benchmark under
``perfbench/`` reads them, and go when it reads columns (ROADMAP item 12).

The only field allowed to be missing is ``ks2_group`` (empty string). Models
that adjust for prior attainment reject cohorts containing such pupils; the
gap is representable here because real extracts have them.
"""

from __future__ import annotations

import csv
import io
import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from typing import BinaryIO, Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .categories import ID_MAX_CHARS, PUPIL_FIELDS, SCHOOL_FIELDS, Field, Kind
from .csvio import (
    _BLANK_CHARS, _BLOCK_ROWS, _UNFIT_ASCII, ParseIssue, _check_header, _csv_lines, _line_blocks,
    _read_blocks, _tokenizable,
)
from .errors import CohortError, id_list

PUPIL_COLUMNS = tuple(f.name for f in PUPIL_FIELDS)
SCHOOL_COLUMNS = tuple(f.name for f in SCHOOL_FIELDS)


def _row_view(name: str, fields: tuple[Field, ...]) -> type:
    """A named tuple with one attribute per column, in table order. A row
    holds each cell's ``Field.values`` entry, which :meth:`Table.records`
    reads for a whole INT, ENUM or FLAG column by one ``np.take``: a
    category's level spelling, an int (None where ``ks2_group`` is missing)
    or a bool."""
    return namedtuple(name, [f.name for f in fields], module=__name__)


PupilRecord = _row_view("PupilRecord", PUPIL_FIELDS)
SchoolRecord = _row_view("SchoolRecord", SCHOOL_FIELDS)


_DTYPE = {Kind.ID: bytes, Kind.FLOAT: np.float64}  # every other kind: int8 codes
_RECORD = {PUPIL_FIELDS: PupilRecord, SCHOOL_FIELDS: SchoolRecord}


def _encode_ids(texts: list[str], chars: int) -> np.ndarray:
    """str ids as UTF-8 bytes, as wide as the longest: ids that are all
    ASCII, none over ``chars`` characters, by one call; any others one by
    one."""
    try:
        return np.array(texts, dtype=f"S{max(chars, 1)}")
    except UnicodeEncodeError:
        return np.array([t.encode() for t in texts], dtype=bytes)


def decode_ids(ids: np.ndarray) -> list[str]:
    """An id column as a list of str. A column that is all ASCII is widened
    to numpy unicode by one cast; any other is decoded cell by cell."""
    ids = np.ascontiguousarray(ids)
    units = ids.view(np.uint8)
    if units.max(initial=0) < 128:
        return units.astype(np.uint32).view(f"U{ids.dtype.itemsize}").tolist()
    return [t.decode() for t in ids.tolist()]


@dataclass(frozen=True, eq=False)
class Table:
    """Rows of one schema held as equal-length numpy columns, keyed by name.

    An id column is UTF-8 bytes (numpy ``S``): compare it with bytes
    (``table["school_id"] == b"S0001"``) and read it as text with
    :func:`decode_ids`. An id column of str handed to a Table is encoded
    once, when the Table is made.
    """

    fields: tuple[Field, ...]
    columns: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        encoded = {}
        for f in self.fields:
            col = np.asarray(self.columns[f.name])
            if f.kind is Kind.ID and col.dtype.kind == "U":
                encoded[f.name] = _encode_ids(col.tolist(), col.dtype.itemsize // 4)
        if encoded:
            object.__setattr__(self, "columns", {**self.columns, **encoded})

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
        """Row views: one PupilRecord or SchoolRecord per row, each made by
        ``tuple.__new__`` over the row's cells, so no Python frame runs per
        row. An INT, ENUM or FLAG column's cells are one ``np.take`` of its
        codes from an object array of the field's values and a last None
        (code -1); ``np.take`` reads a bool column as codes 0 and 1, where
        indexing would read it as a mask."""
        cells = []
        for f in self.fields:
            col = self.columns[f.name]
            if f.kind is Kind.ID:
                cells.append(decode_ids(col))
            elif f.kind is Kind.FLOAT:
                cells.append(col.tolist())
            else:
                cells.append(np.take(np.array(f.values + (None,), dtype=object), col).tolist())
        record = _RECORD[self.fields]
        return tuple(map(partial(tuple.__new__, record), zip(*cells)))


@dataclass(frozen=True, eq=False)
class ValidatedCohort:
    """Cross-referenced pupil and school columns, immutable after construction.

    Every pupil's school_id resolves to a school; every school has at least
    one pupil; pupil ids are unique. Pupils keep their input order; schools
    are sorted by school_id, and ``school_index`` gives each pupil's row in
    ``school_table``, so school k is the k-th smallest school_id.

    ``_level_counts`` is a private store that :mod:`vamkit.design` fills:
    the cross-tab of covariate levels its designs' X'X are read from
    (~60 KB), counted once per cohort. It is made on first use, not held
    in a field, so a cohort made by ``dataclasses.replace`` starts with an
    empty store rather than the counts of its source's codes.
    """

    pupil_table: Table
    school_table: Table
    school_index: np.ndarray
    n_pupils = property(lambda self: len(self.pupil_table))
    n_schools = property(lambda self: len(self.school_table))

    @cached_property
    def _level_counts(self) -> dict:
        return {}

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
    vectorised check skip it: an id is stripped as str and checked for
    ``Field.encode``'s empty, NUL and length rules before it is encoded. Bad
    cells hold a placeholder; a bad id's is empty, so that no id too long
    to keep sets the block's width.
    """
    col, suspects = None, raw
    if f.kind is Kind.ID:
        ids = list(map(str.strip, raw))
        lengths = np.fromiter(map(len, ids), dtype=np.intp, count=len(ids))
        bad = (lengths == 0) | (lengths > ID_MAX_CHARS)
        if "\0" in "".join(ids):
            bad |= np.fromiter(("\0" in t for t in ids), dtype=bool, count=len(ids))
        bad = np.flatnonzero(bad).tolist()
        suspects = [raw[i] for i in bad]
        for i in bad:
            ids[i] = ""
            lengths[i] = 0
        col = _encode_ids(ids, int(lengths.max(initial=0)))
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
# a spelling table has at most 2**_SLOT_BITS slots, and is given up once
# it has missed on _MISSES blocks in a row
_SLOT_BITS, _MISSES = 16, 2


def _keys(words: np.ndarray) -> np.ndarray:
    """Each cell's hash, from its row of 8-byte words."""
    key = words[:, 0]
    for j in range(1, words.shape[1]):
        key = key * _MIX + words[:, j]
    return key


class _SpellingTable:
    """The good spellings of one category column met so far in a file, at
    one gathered width, for coding a block without sorting it: each
    spelling's words sit in the slot the top bits of its key times ``_MIX``
    pick, and a cell is coded by its slot's code once its words equal the
    slot's. A table has at least 8 slots a key, and doubles until each key
    has its own slot, up to ``_SLOT_BITS``. Of spellings that share a slot
    even then, or a key, the first learned is kept and a block that holds
    another misses. An empty slot's words are all ones, which no ASCII cell
    has. A table that has missed on ``_MISSES`` blocks in a row, as on a
    file whose blocks keep bringing new spellings, misses from then on and
    learns nothing more."""

    def __init__(self):
        self.known: dict[bytes, int] = {}  # each spelling's words -> code
        self.misses = 0  # blocks missed in a row

    def learn(self, rows: np.ndarray, codes: np.ndarray) -> None:
        """Add spellings (their rows of words) and their codes."""
        if self.misses == _MISSES:
            return
        size = len(self.known)
        self.known.update(zip(map(bytes, rows), codes.tolist()))
        if len(self.known) == size:
            return
        rows = np.frombuffer(b"".join(self.known), dtype=np.uint64).reshape(len(self.known), -1)
        keys = _keys(rows) * _MIX
        n = len(set(keys.tolist()))  # spellings of equal keys share every slot
        bits = min((8 * n - 1).bit_length(), _SLOT_BITS)
        while True:
            self.shift = np.uint64(64 - bits)
            taken, first = np.unique(keys >> self.shift, return_index=True)
            if taken.size == n or bits == _SLOT_BITS:
                break
            bits += 1
        self.words = np.full((1 << bits, rows.shape[1]), ~np.uint64(0))
        self.words[taken] = rows[first]
        self.codes = np.zeros(1 << bits, dtype=np.int8)
        self.codes[taken] = np.fromiter(self.known.values(), dtype=np.int8)[first]

    def encode(self, key: np.ndarray, words: np.ndarray) -> np.ndarray | None:
        """The cells' codes, or None if a cell is not in the table."""
        if self.misses == _MISSES:
            return None
        slot = (key * _MIX) >> self.shift
        if (self.words[slot] == words).all():
            self.misses = 0
            return self.codes[slot]
        self.misses += 1
        return None


def _encode_cells(
    f: Field, cells, decoded: dict, reasons: dict[str, str], tables: dict[int, _SpellingTable]
) -> tuple[np.ndarray, dict[int, str] | None]:
    """:func:`_encode_column` for one column of a block's cells: cells of
    str go to it as they are; gathered cells are an (n, width) uint8 array,
    each cell's bytes zero-padded. An id column is the gathered cells
    themselves. A category column is coded by ``tables``' entry for its
    width (see :class:`_SpellingTable`). A block the table misses is
    sorted by a hash of each cell's 8-byte words, checked cell by cell
    against the spelling, and its good spellings are added to the table. A
    column this does not settle is decoded and takes the str route, as is
    one with an id over ``ID_MAX_CHARS`` or with a control character or
    space in an id, which ``str.strip`` may strip.
    """
    if not isinstance(cells, np.ndarray):
        return _encode_column(f, cells, decoded, reasons)
    n, width = cells.shape
    text = cells.view(f"S{width}")[:, 0]
    if f.kind is Kind.ID:
        # bytes 1-32 are the control characters and space; 0 pads a cell
        long = width > ID_MAX_CHARS and cells[:, ID_MAX_CHARS:].any()
        if long or ((cells - 1) < 32).any():
            return _encode_column(f, [t.decode() for t in text.tolist()], decoded, reasons)
        bad = np.flatnonzero(cells[:, 0] == 0)  # empty cells
        spelt = [""] * bad.size
        _learn(f, spelt, decoded, reasons)
        return text, _faults(bad, spelt, reasons)
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
    key = _keys(words)
    table = tables.get(words.shape[1])
    if table is not None:
        col = table.encode(key, words)
        if col is not None:
            return col, None
    _, inverse = np.unique(key, return_inverse=True)
    first = np.empty(inverse.max() + 1, dtype=np.intp)
    first[inverse] = np.arange(n)  # a cell of each spelling
    if words.shape[1] > 1 and not (words == words[first[inverse]]).all():
        return _encode_column(f, [t.decode() for t in text.tolist()], decoded, reasons)
    spelt = [t.decode() for t in text[first].tolist()]
    _learn(f, spelt, decoded, reasons)
    codes = np.array([decoded[t] for t in spelt], dtype=np.int8)
    col = codes[inverse]
    bad_spelt = np.array([t in reasons for t in spelt])
    good = np.flatnonzero(~bad_spelt)
    if good.size:
        if table is None:
            table = tables[words.shape[1]] = _SpellingTable()
        table.learn(words[first[good]], codes[good])
    if not bad_spelt.any():
        return col, None
    bad = np.flatnonzero(bad_spelt[inverse])
    return col, _faults(bad, [spelt[i] for i in inverse[bad]], reasons)


# bytes gathered per cell at most
_GATHER_CAP = 256
# _HEAD[k, n]: the mask of a little-endian 8-byte word that keeps the bytes
# of word k of a cell n bytes long
_HEAD = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)[
    np.clip(np.arange(_GATHER_CAP + 1) - np.arange(0, _GATHER_CAP, 8)[:, None], 0, 8)
]
# buffer bytes past a block: a newline after a last line that lacks one,
# and the widest window a cell is gathered through
_SPARE = 1 + _GATHER_CAP
_NEWLINE, _COMMA = ord("\n"), ord(",")
# by byte value, whether a blank line may be made of it (a line's own
# newline among them)
_BLANK = np.array([chr(b) in _BLANK_CHARS for b in range(256)])


# by byte value, whether a _tokenizable block does not hold that byte
_UNFIT = np.array([b >= 128 or bytes([b]) in _UNFIT_ASCII for b in range(256)])


def _byte_blocks(
    source: BinaryIO, names: tuple[str, ...], what: str, issues: list[ParseIssue]
) -> Iterator[tuple]:
    """:func:`read_blocks` in numpy while the file's bytes are
    :func:`_tokenizable`: each block of whole lines (see
    :func:`csvio._line_blocks`) gives what :func:`_cut_block` makes of it.
    At the first block that is not, the lines before the line of its first
    byte that does not fit are the last block cut. Returns None at the
    file's end, else the blocks, ``at`` and ``row_no`` of
    :func:`csvio._read_blocks` for the lines it did not cut: the rest of
    that block, then the rest of the file.
    """
    width = len(names)
    at, row_no = 0, 0  # bytes cut; the next line's row number (0: the header)
    blocks = _line_blocks(source, _SPARE)
    for raw, end in blocks:
        buf = np.frombuffer(raw, dtype=np.uint8)
        rest = None
        if not _tokenizable(raw[:end]):
            unfit = raw.rfind(b"\n", 0, int(np.argmax(_UNFIT[buf[:end]]))) + 1
            rest = chain([(raw[unfit:end], end - unfit)], blocks)
            end = unfit
        elif raw[end - 1] != _NEWLINE:  # the file's last line
            raw[end] = _NEWLINE
            end += 1
        start = 0
        if end and not row_no:  # the header
            start = raw.index(b"\n", 0, end) + 1
            header = raw[: start - 1].decode()
            _check_header(header.split(",") if header else [], names, what)
            row_no = 1
        if start < end:
            try:
                lines, cut = _cut_block(buf[start:], end - start, width, row_no, issues)
            except csv.Error as exc:
                raise CohortError(f"{what} is malformed: {exc}") from exc
            row_no += lines
            if cut:
                yield cut
            del cut  # before the next block is cut
        at += end
        if rest is not None:
            return rest, at, max(row_no, 1)
    if not row_no:
        _check_header(None, names, what)  # an empty file


def _cut_block(
    buf: np.ndarray, size: int, width: int, row_no: int, issues: list[ParseIssue]
) -> tuple[int, tuple | None]:
    """The number of lines in the block ``buf[:size]``, whose first line is
    row ``row_no``, and its kept rows: their cells by column (see
    :func:`_gather`) and their numbers, or None if none is kept.

    The csv route's line rules, on the bytes: a line of only commas and
    whitespace is blank and skipped, one with other than ``width - 1``
    commas is a ``(row)`` issue, and any other line is a row. Only lines of
    the wrong width or with a ``_BLANK`` first byte are looked at one by
    one. A line with a cell over the csv module's field limit raises its
    ``csv.Error``, as the csv route would, blank or not.
    """
    block = buf[:size]
    is_sep = block == _COMMA
    is_sep |= block == _NEWLINE
    seps = np.flatnonzero(is_sep)
    del is_sep
    line_seps = np.flatnonzero(block[seps] == _NEWLINE)  # each line's last separator
    ends = seps[line_seps]
    begins = np.concatenate(([0], ends[:-1] + 1))
    limit = csv.field_size_limit()
    for i in np.flatnonzero(ends - begins > limit):
        line = block[begins[i] : ends[i]].tobytes().decode()
        if max(map(len, line.split(","))) > limit:
            next(csv.reader([line]))
    keep = np.diff(line_seps, prepend=-1) == width  # width - 1 commas and a newline
    for i in np.flatnonzero(~keep | _BLANK[block[begins]]):
        line = block[begins[i] : ends[i]]
        if _BLANK[line].all():
            keep[i] = False
        elif not keep[i]:
            reason = f"expected {width} fields, got {np.count_nonzero(line == _COMMA) + 1}"
            issues.append(ParseIssue(row_no + int(i), "(row)", reason))
    rows = np.flatnonzero(keep)
    if not rows.size:
        return ends.size, None
    if rows.size * width == seps.size:  # every line is a row
        stops = seps.reshape(-1, width)
    else:
        stops = seps[line_seps[rows, None] + np.arange(1 - width, 1)]
    return ends.size, (_gather(buf, size, begins[rows], stops), row_no + rows)


def _gather(
    buf: np.ndarray, size: int, starts: np.ndarray, stops: np.ndarray
) -> Iterator[np.ndarray | list[str]]:
    """Each column's cells in the block ``buf[:size]``, from the rows' first
    bytes and each cell's end, made as they are asked for: an (n, width)
    uint8 array per column, each cell's bytes zero-padded to whole 8-byte
    words, but a list of str for a column with a cell longer than
    ``_GATHER_CAP``.
    """
    # each byte's window of the cap's width: the buffer goes on past the block
    windows = as_strided(buf, shape=(size, _GATHER_CAP), strides=(1, 1))
    for j in range(stops.shape[1]):
        firsts = stops[:, j - 1] + 1 if j else starts
        sizes = stops[:, j] - firsts
        longest = int(sizes.max())
        if longest > _GATHER_CAP:
            text = buf[:size].tobytes().decode()
            yield [text[a:b] for a, b in zip(firsts.tolist(), stops[:, j].tolist())]
            continue
        w = -(-max(longest, 1) // 8) * 8  # whole 8-byte words
        col = windows[firsts, :w]
        # zero each cell's bytes past its end, a word at a time
        words = col.view("<u8")
        for k in range(int(sizes.min()) // 8, w // 8):
            words[:, k] &= _HEAD[k, sizes]
        yield col


def _byte_width(ids: np.ndarray) -> int:
    """Bytes in the longest of the ids, at least 1: the last byte that is
    not 0 in any id, found by or-ing the ids' 8-byte words."""
    words = -(-ids.dtype.itemsize // 8)
    cells = np.ascontiguousarray(ids, dtype=f"S{8 * words}").view("<u8").reshape(ids.size, words)
    used = np.bitwise_or.reduce(cells, axis=0)
    last = np.flatnonzero(used)
    if not last.size:
        return 1
    return 8 * int(last[-1]) + (int(used[last[-1]]).bit_length() + 7) // 8


class _Column:
    """One column's kept values, appended a block at a time to a single
    array that grows in place, so a parse allocates each column once rather
    than a chunk per block. An id column is as many bytes wide as its
    longest kept id."""

    def __init__(self, f: Field):
        self.is_id = f.kind is Kind.ID
        # empty, it types a column that gets no rows
        self.values = np.empty(0, dtype=_DTYPE.get(f.kind, np.int8))
        self.size = 0

    def append(self, col: np.ndarray) -> None:
        """Add a block's values, growing the array by an eighth when full."""
        if self.is_id:
            longest = _byte_width(col)
            if longest > self.values.dtype.itemsize:
                self.values = self.values.astype(f"S{longest}")
        end = self.size + len(col)
        if end > len(self.values):
            self.values.resize(end + end // 8, refcheck=False)
        self.values[self.size : end] = col
        self.size = end

    def finish(self) -> np.ndarray:
        self.values.resize(self.size, refcheck=False)
        return self.values


def _columns(
    fields: tuple[Field, ...], blocks: Iterator, issues: list[ParseIssue]
) -> tuple[Table, list[ParseIssue]]:
    """Encode blocks of raw cells into a Table; each bad row is skipped with
    one issue, under its first failing column in column order.

    Each block is one raw column per field (see :func:`_encode_cells`) and
    the rows' numbers.
    """
    spellings = [({}, {}, {}) for _ in fields]  # per column: decoded, reasons, tables
    columns = [_Column(f) for f in fields]
    for raws, row_nos in blocks:
        failed = np.zeros(len(row_nos), dtype=bool)
        block = []
        for f, raw, state in zip(fields, raws, spellings):
            col, why = _encode_cells(f, raw, *state)
            if why:
                bad = np.zeros(len(row_nos), dtype=bool)
                bad[list(why)] = True
                for i in np.flatnonzero(bad & ~failed):
                    issues.append(ParseIssue(int(row_nos[i]), f.name, why[i]))
                failed |= bad
            block.append(col)
        for column, col in zip(columns, block):
            column.append(col[~failed] if failed.any() else col)
        del raws, block  # before the next block is cut
    issues.sort(key=lambda issue: issue.row)
    return Table(fields, {f.name: c.finish() for f, c in zip(fields, columns)}), issues


def _parse_table(
    source: BinaryIO | bytes, fields: tuple[Field, ...], what: str
) -> tuple[Table, list[ParseIssue]]:
    """Read a CSV into columns, in one forward pass; each bad row is skipped
    with one issue.

    One loop, :func:`csvio._line_blocks`, reads the file a block of lines
    at a time. The byte route cuts each block while its bytes are
    :func:`_tokenizable`. From the line of the first byte that is not, the
    csv route reads the rest of that block and then the loop's further
    blocks. The routes give the same columns, dtypes and issues.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    names, issues = tuple(f.name for f in fields), []

    def blocks():
        rest = yield from _byte_blocks(source, names, what, issues)
        if rest is not None:
            lines, at, row_no = rest
            rows = _read_blocks(lines, names, what, issues, at, row_no)
            yield from ((zip(*block), row_nos) for block, row_nos in rows)

    return _columns(fields, blocks(), issues)


def parse_pupils(source: BinaryIO | bytes) -> tuple[Table, list[ParseIssue]]:
    """Parse pupil CSV bytes, or a binary file from where it stands (read
    once, forward, a block at a time: a pipe will do), into columns plus
    row-level issues.

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
        raise _fault(f"duplicate {name} values: {id_list(decode_ids(unique[counts > 1]))}", what)


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
    by_id = np.argsort(school_ids, kind="stable")
    sorted_ids = school_ids[by_id]
    at = np.searchsorted(sorted_ids, kept)
    known = np.zeros(kept.size, dtype=bool)
    inside = at < sorted_ids.size
    known[inside] = sorted_ids[at[inside]] == kept[inside]
    if not known.all():
        message = f"pupils reference unknown school_id values: {id_list(decode_ids(kept[~known]))}"
        raise _fault(message, "pupils", "schools")
    empty = np.ones(sorted_ids.size, dtype=bool)
    empty[at] = False
    if empty.any():
        warnings.warn(
            f"dropping {int(empty.sum())} school(s) with no pupils: "
            f"{id_list(decode_ids(sorted_ids[empty]))}",
            stacklevel=2,
        )
    return ValidatedCohort(pupils, schools.take(by_id[at]), school_index)


def serialize_blocks(table: Table) -> Iterator[bytes]:
    """A Table as CSV bytes, by ``csvio.csv_bytes``'s line joiner: the
    header line, then the lines of each block of ``_BLOCK_ROWS`` rows, made
    as they are asked for. An id's cell is its text; a number's is its
    shortest round-trip repr, but an integer value without its ".0"; a
    category's is its spelling, taken by code as :meth:`Table.records`
    takes values (code -1: the empty cell)."""
    fields = table.fields
    spellings = {
        f.name: np.array(f.spellings + ("",), dtype=object) for f in fields if f.kind not in _DTYPE
    }
    yield _csv_lines([[f.name] for f in fields])
    for start in range(0, len(table), _BLOCK_ROWS):
        block = []
        for f in fields:
            col = table[f.name][start : start + _BLOCK_ROWS]
            if f.kind is Kind.ID:
                block.append(decode_ids(col))
            elif f.kind is Kind.FLOAT:
                cells = list(map(repr, col.tolist()))
                whole = np.flatnonzero(np.isfinite(col) & (col == np.trunc(col)))
                for at, value in zip(whole.tolist(), col[whole].tolist()):
                    cells[at] = str(int(value))
                block.append(cells)
            else:
                block.append(np.take(spellings[f.name], col).tolist())
        yield _csv_lines(block)
