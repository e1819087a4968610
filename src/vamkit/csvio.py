"""CSV reading and writing shared by every file vamkit reads or writes.

Reading: the input's bytes must be UTF-8 (a BOM is allowed), the header
must be exactly the expected column names, blank rows are skipped and a row
of the wrong width becomes a :class:`ParseIssue`. The input is read once,
forward, as a stream, by one loop (:func:`_line_blocks`) that reads a block
of whole lines at a time into one reused buffer: a block is decoded at a
time and rows come in blocks of a few thousand, so a reader holds one
block of bytes, text and Python strings, never the whole file's. A fatal
fault is reported when the read reaches it: a byte that is not UTF-8 when
its block is decoded, a bad header or quoting when its row is read.
Writing: UTF-8 with "\\n" line ends, a cell quoted only when it needs to
be, joined and encoded a block of rows at a time.

These reading rules hold for every file vamkit reads, and
:func:`_line_blocks` reads every file's bytes. A block that is
:func:`_tokenizable` (ASCII, with no quote, carriage return or NUL) is
cut at its newlines and commas under the same rules: by numpy in
:mod:`vamkit.cohort` for a cohort file, and by ``str.split`` in
:func:`read_blocks` for any other, such as the score files ``compare``
reads, when each of its lines is a row (see :func:`_pieces`). The csv
module reads every other block, and from the first block that is not
tokenizable the rest of the file, for a cohort file from the first line
the byte route cannot cut.
One line joiner (:func:`_csv_lines`) writes every file: :func:`csv_bytes`
writes ``truth.csv`` and the CLI's outputs with it, and
:mod:`vamkit.cohort` the cohort files, a block of rows at a time.

This module needs only the standard library, so the CLI's ``compare``
reads and writes without importing numpy.
"""

from __future__ import annotations

import codecs
import csv
import io
from itertools import chain, repeat
from typing import BinaryIO, Iterator, NamedTuple, Sequence

from .errors import CohortError

# rows per block read or written: their Python strs are held a block at a time
_BLOCK_ROWS = 8192
# bytes read and decoded at a time: about _BLOCK_ROWS lines of a cohort file
_BLOCK_BYTES = 80 * _BLOCK_ROWS


class ParseIssue(NamedTuple):
    """A skipped CSV row: 1-based data row number, offending column, reason."""

    row: int
    column: str
    reason: str

    def __str__(self) -> str:
        return f"row {self.row}, column {self.column}: {self.reason}"


def _line_blocks(source: BinaryIO, spare: int = 0) -> Iterator[tuple[bytearray, int]]:
    """The file's bytes in blocks of whole lines, read into one reused
    buffer: each block is the buffer and the block's length. A block ends at
    the last newline in its first ``_BLOCK_BYTES``, else in the first
    further ``_BLOCK_BYTES`` that hold one; the last block ends at the
    file's end, newline or not. At least ``spare`` bytes of the buffer
    follow a block, and the buffer is overwritten when the next block is
    asked for."""
    raw = bytearray(_BLOCK_BYTES + spare)
    held = 0  # bytes in the buffer past the last block: they hold no newline
    while True:
        end, got = 0, 1
        while not end and got:  # to a block's size, then on to a newline
            stop = _BLOCK_BYTES * (held // _BLOCK_BYTES + 1)
            if len(raw) < stop + spare:
                raw = raw + bytes(len(raw))
            got = source.readinto(memoryview(raw)[held:stop])
            end = raw.rfind(b"\n", held, held + got) + 1
            held += got
        if not end:  # the file's end
            if not held:
                return
            end = held
        yield raw, end
        raw[: held - end] = raw[end:held]
        held -= end


# the ASCII bytes that a _tokenizable block does not hold
_UNFIT_ASCII = (b'"', b"\r", b"\0")
# a line of only these is blank: the comma and what str.strip() strips
# from ASCII text
_BLANK_CHARS = "," + "".join(c for c in map(chr, range(128)) if c.isspace())


def _tokenizable(data: bytes | bytearray) -> bool:
    """Whether bytes are read the same by splitting their lines at commas as
    by the csv module: ASCII, with no quote, carriage return or NUL."""
    return data.isascii() and not any(c in data for c in _UNFIT_ASCII)


def _lines(blocks: Iterator[tuple[bytes | bytearray, int]], at: int) -> Iterator[str]:
    """The lines of blocks of whole lines (see :func:`_line_blocks`), the
    first of which begins ``at`` bytes into the file, split as with
    ``newline=""``. A block, cut after a newline (a byte of no multi-byte
    character), is decoded at a time, so one block's text is held. A BOM at
    the file's start is skipped, and error positions count from after it,
    as a decode of the whole file by ``utf-8-sig`` counts them."""
    for buf, size in blocks:
        bom = len(codecs.BOM_UTF8) if not at and buf.startswith(codecs.BOM_UTF8, 0, size) else 0
        try:
            text = str(memoryview(buf)[bom:size], "utf-8")
        except UnicodeDecodeError as exc:
            start, end = exc.start + at, exc.end + at - 1
            where = f"bytes in position {start}-{end}"
            if start == end:
                where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
            reason = f"'utf-8' codec can't decode {where}: {exc.reason}"
            raise CohortError(f"input is not valid UTF-8: {reason}") from exc
        at += size - bom
        yield from io.StringIO(text, newline="")


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


def read_blocks(
    source: BinaryIO | bytes, names: Sequence[str], what: str, issues: list[ParseIssue]
) -> Iterator[tuple[list[tuple[str, ...]], list[int]]]:
    """The rows of a CSV whose header is exactly ``names``, in blocks of at
    most ``_BLOCK_ROWS``: each block is a list of rows and a list of their
    1-based numbers (blank rows are skipped but counted). A row of the wrong
    width is skipped and appended to ``issues`` as it is read, so when a
    block is yielded ``issues`` holds every such row up to its last row.
    Bad bytes, header or quoting raise :class:`CohortError` when reached.
    """
    source = io.BytesIO(source) if isinstance(source, bytes) else source
    return _read_blocks(_line_blocks(source), names, what, issues)


def _read_blocks(
    blocks: Iterator[tuple[bytes | bytearray, int]], names: Sequence[str], what: str,
    issues: list[ParseIssue], at: int = 0, row_no: int = 1,
) -> Iterator[tuple[list[tuple[str, ...]], list[int]]]:
    """:func:`read_blocks` of blocks of whole lines (see :func:`_line_blocks`):
    the first begins ``at`` bytes into the file, on a line that is row
    ``row_no``. Only at the file's start (``at`` 0) is a header read. The
    lines come from :func:`_pieces`; a piece that is a list of rows is
    taken whole, and a ``csv.reader``'s rows are read one at a time under
    the csv route's rules."""
    width = len(names)
    # tuples, not the reader's lists: the cyclic GC untracks a tuple of str,
    # but rescans every kept list on each pass
    rows: list[tuple[str, ...]] = []
    row_nos: list[int] = []
    try:
        for row_no, piece in _pieces(blocks, names, what, at, row_no):
            if isinstance(piece, list):  # every line a row
                rows += piece
                row_nos += range(row_no, row_no + len(piece))
                while len(rows) >= _BLOCK_ROWS:
                    yield rows[:_BLOCK_ROWS], row_nos[:_BLOCK_ROWS]
                    rows, row_nos = rows[_BLOCK_ROWS:], row_nos[_BLOCK_ROWS:]
                continue
            for row_no, row in enumerate(piece, start=row_no):
                # blank rows are skipped; a non-blank first cell settles it quickly
                if not (row and row[0].strip()) and not any(cell.strip() for cell in row):
                    continue
                if len(row) != width:
                    reason = f"expected {width} fields, got {len(row)}"
                    issues.append(ParseIssue(row_no, "(row)", reason))
                    continue
                rows.append(tuple(row))
                row_nos.append(row_no)
                if len(rows) == _BLOCK_ROWS:
                    yield rows, row_nos
                    rows, row_nos = [], []
    except csv.Error as exc:
        raise CohortError(f"{what} is malformed: {exc}") from exc
    if rows:
        yield rows, row_nos


def _pieces(
    blocks: Iterator[tuple[bytes | bytearray, int]], names: Sequence[str], what: str,
    at: int, row_no: int,
) -> Iterator[tuple[int, list[tuple[str, ...]] | Iterator[list[str]]]]:
    """The cells of the lines of :func:`_read_blocks`' blocks, a block at a
    time, each piece with its first line's row number; the header, when
    ``at`` is 0, is checked first.

    A :func:`_tokenizable` block is cut at its newlines by ``str.split``.
    When every line has ``width - 1`` commas, is within the csv module's
    field limit and is not blank, as C-level passes over the lines check,
    its cells are cut at the commas by one more ``split`` into its rows,
    as tuples (the split route); else ``csv.reader`` reads its lines. From
    the first block that is not tokenizable, ``csv.reader`` reads the rest
    of the file (the csv route): a quoted cell may run on into the next
    block.
    """
    width, limit = len(names), csv.field_size_limit()
    header = not at
    for buf, size in blocks:
        data = buf[:size]
        if not _tokenizable(data):
            reader = csv.reader(_lines(chain([(data, size)], blocks), at))
            if header:
                _check_header(next(reader, None), names, what)
            yield row_no, reader
            return
        at += size
        lines = data.decode().split("\n")
        if not lines[-1]:  # after the block's last newline
            lines.pop()
        if header:
            _check_header(next(csv.reader([lines.pop(0)])), names, what)
            header = False
        if not lines:
            continue
        if (
            max(map(len, lines)) <= limit
            and all(map(str.strip, lines, repeat(_BLANK_CHARS)))
            and list(map(str.count, lines, repeat(","))).count(width - 1) == len(lines)
        ):
            cells = ",".join(lines).split(",")
            yield row_no, list(zip(*[iter(cells)] * width))
        else:
            yield row_no, csv.reader(lines)
        row_no += len(lines)
    if header:
        _check_header(None, names, what)  # an empty file


# a CSV cell holding any of these is quoted, with its " doubled
_SPECIAL = (",", '"', "\r", "\n")


def _needs_quotes(text: str) -> bool:
    # a substring scan is a memchr; a regex character class is ten times slower
    return any(c in text for c in _SPECIAL)


def _fields(cells: list[str]) -> list[str]:
    """A column's CSV fields. The column is searched once, as one string; a
    column that needs no quoting is returned as it is."""
    if not _needs_quotes("".join(cells)):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _needs_quotes(c) else c for c in cells]


def _csv_lines(columns: Sequence[list[str]]) -> bytes:
    """The UTF-8 CSV lines, each ended by "\\n", of equal-length columns of
    str that hold at least one row."""
    return ("\n".join(map(",".join, zip(*map(_fields, columns)))) + "\n").encode("utf-8")


def csv_bytes(header: Sequence[str], columns: Sequence[list[str]]) -> bytes:
    """UTF-8 CSV with "\\n" line ends from equal-length columns of str."""
    if len({len(col) for col in columns}) > 1:
        raise ValueError("csv_bytes needs columns of equal length")
    buf = io.BytesIO()
    buf.write(_csv_lines([[name] for name in header]))
    for start in range(0, len(columns[0]) if columns else 0, _BLOCK_ROWS):
        buf.write(_csv_lines([col[start : start + _BLOCK_ROWS] for col in columns]))
    return buf.getvalue()
