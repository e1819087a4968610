"""CSV reading and writing shared by every file vamkit reads or writes.

Reading: the input's bytes must be UTF-8 (a BOM is allowed), the header
must be exactly the expected column names, blank rows are skipped and a row
of the wrong width becomes a :class:`ParseIssue`. Rows come in blocks of a
few thousand, so a reader holds one block of Python strings, never the
whole file's. Writing: UTF-8 with "\\n" line ends, a cell quoted only when
it needs to be, joined and encoded a block of rows at a time.

These reading rules hold for every file vamkit reads. A cohort file that
is ASCII and holds no quote, carriage return or NUL is cut into cells by
numpy in :mod:`vamkit.cohort` under the same rules; :func:`read_blocks`
reads every other cohort file and the score files ``compare`` reads.

This module needs only the standard library, so the CLI's ``compare``
reads and writes without importing numpy.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Sequence

from .errors import CohortError

# rows per block read or written: their Python strs are held a block at a time
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class ParseIssue:
    """A skipped CSV row: 1-based data row number, offending column, reason."""

    row: int
    column: str
    reason: str

    def __str__(self) -> str:
        return f"row {self.row}, column {self.column}: {self.reason}"


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
    width = len(names)
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
                if len(rows) == _BLOCK_ROWS:
                    yield rows, row_nos
                    rows, row_nos = [], []
        except csv.Error as exc:
            raise CohortError(f"{what} is malformed: {exc}") from exc
    if rows:
        yield rows, row_nos


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


def csv_bytes(header: Sequence[str], columns: Sequence[list[str]]) -> bytes:
    """UTF-8 CSV with "\\n" line ends from equal-length columns of str."""
    if len({len(col) for col in columns}) > 1:
        raise ValueError("csv_bytes needs columns of equal length")
    columns = [_fields(col) for col in columns]
    buf = io.BytesIO()
    buf.write((",".join(_fields(list(header))) + "\n").encode("utf-8"))
    for start in range(0, len(columns[0]) if columns else 0, _BLOCK_ROWS):
        rows = zip(*(col[start : start + _BLOCK_ROWS] for col in columns))
        buf.write(("\n".join(map(",".join, rows)) + "\n").encode("utf-8"))
    return buf.getvalue()
