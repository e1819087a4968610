"""A per-cell cohort writer, kept as a test oracle.

Each cell is made a Python str (an id as its UTF-8 text, a number by ``_num``, a
category code by its spelling, code -1 as the empty cell) and the columns
go through ``csvio.csv_bytes``. ``test_serialize.py`` checks that
``serialize_blocks`` writes the same bytes, joined.
"""

from __future__ import annotations

from vamkit.categories import Kind
from vamkit.cohort import Table
from vamkit.csvio import csv_bytes


def _num(value: float) -> str:
    """Shortest exact decimal form; integers without trailing .0."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def serialize(table: Table) -> bytes:
    cells = []
    for f in table.fields:
        col = table[f.name].tolist()
        if f.kind is Kind.ID:
            col = [t.decode() for t in col]
        elif f.kind is Kind.FLOAT:
            col = list(map(_num, col))
        elif f.kind is not Kind.ID:
            col = list(map((f.spellings + ("",)).__getitem__, col))
        cells.append(col)
    return csv_bytes([f.name for f in table.fields], cells)
