"""The cohort writer against a per-cell writer, kept as an oracle.

``serialize_blocks`` makes each block of rows' cells a column at a time;
``serialize_reference.py`` makes one Python str per cell and joins them
with ``csv_bytes``. A derandomised property test checks
that both write the same bytes for random pupil and school tables: ids that
need quoting, non-ASCII ids and ids with an inner NUL; outcomes at zero,
signed zero, the bounds, subnormals, large integers, nan and inf; code -1
(the empty cell) in the category columns; and row counts either side of a
block of ``_BLOCK_ROWS``. As both join their rows with csvio's joiner, the
test also reads the bytes back with ``csv.reader``, which shares no code
with the writer, and checks that the writer yields the header line and
then one piece per block.
"""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from vamkit.categories import PUPIL_FIELDS, SCHOOL_FIELDS, Kind
from vamkit.cohort import Table, serialize_blocks
from vamkit.csvio import _BLOCK_ROWS

import serialize_reference
from conftest import random_cohort

SIZES = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]
ID_CELLS = ["a,b", 'say "hi"', "cr\r", "lf\n", "\r\n", "Zoë", "学校", "a\0b", "", " x ", "P1"]
OUTCOMES = [0.0, -0.0, 90.0, 1e-05, 5e-324, 1e16, 1e22, -1e22, float("nan"), float("inf"),
            float("-inf"), 0.1, 12.5, 2.0**53 + 2]


def cells(f):
    """A strategy for one stored value of the field."""
    if f.kind is Kind.ID:
        return st.sampled_from(ID_CELLS) | st.text(max_size=8)
    if f.kind is Kind.FLOAT:
        return st.sampled_from(OUTCOMES) | st.floats()
    return st.integers(-1, len(f.spellings) - 1)


# edits made in every example that has rows: each odd value of each kind
COVER = [(f.name, v) for f in PUPIL_FIELDS + SCHOOL_FIELDS if f.kind is Kind.ID for v in ID_CELLS]
COVER += [("attainment8_total", v) for v in OUTCOMES]
COVER += [(f.name, -1) for f in PUPIL_FIELDS + SCHOOL_FIELDS if f.kind not in (Kind.ID, Kind.FLOAT)]


@st.composite
def tables(draw):
    fields = draw(st.sampled_from([PUPIL_FIELDS, SCHOOL_FIELDS]))
    n = draw(st.sampled_from(SIZES) | st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for f in fields:
        if f.kind is Kind.ID:
            # ids of varying length, ascending or not
            columns[f.name] = [f"{f.name[0].upper()}{i:0{w}d}" for i, w in
                               zip(rng.permutation(n), rng.integers(1, 8, n))]
        elif f.kind is Kind.FLOAT:
            values = rng.uniform(0.0, 90.0, n)
            columns[f.name] = np.where(rng.random(n) < 0.2, np.round(values), values)
        else:
            low = -1 if f.optional else 0
            columns[f.name] = rng.integers(low, len(f.spellings), n).astype(np.int8)
    names = [f.name for f in fields]
    if n:
        rows = draw(st.lists(st.integers(0, n - 1), min_size=len(COVER), max_size=len(COVER)))
        edits = [(row, name, value) for row, (name, value) in zip(rows, COVER) if name in names]
        for f in fields:
            row = st.integers(0, n - 1)
            edits += draw(st.lists(st.tuples(row, st.just(f.name), cells(f)), max_size=6))
        for row, name, value in edits:
            columns[name][row] = value
    for f in fields:
        if f.kind is Kind.ID:
            columns[f.name] = np.array(columns[f.name], dtype=str)
    return Table(fields, columns)


# no shrink phase: a failure is reported on its first example, not minutes later
@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(table=tables())
def test_writer_matches_per_cell_reference(table):
    pieces = list(serialize_blocks(table))
    written = b"".join(pieces)
    assert written == serialize_reference.serialize(table)

    # the header and the reference's cells, read back by the csv module
    with mock.patch.object(serialize_reference, "csv_bytes", lambda *header_cells: header_cells):
        header, cells = serialize_reference.serialize(table)
    rows = list(csv.reader(io.StringIO(written.decode("utf-8"), newline="")))
    assert rows == [header] + [list(row) for row in zip(*cells)]
    # streamed: the header line, then one piece per block of rows
    assert pieces[0] == (",".join(header) + "\n").encode()
    assert len(pieces) == 1 + math.ceil(len(table) / _BLOCK_ROWS)


@pytest.mark.parametrize("n", [3, 40])
def test_bool_flag_is_written_as_its_codes(n):
    # a caller's Table may hold fsm as bool; read as a mask it would select
    # spellings (3 rows: as many as the flag's spellings and the empty cell)
    pupils = random_cohort(0).pupil_table.take(np.arange(n))
    as_bool = pupils.replace(fsm=pupils["fsm"].astype(bool))
    assert b"".join(serialize_blocks(as_bool)) == b"".join(serialize_blocks(pupils))
