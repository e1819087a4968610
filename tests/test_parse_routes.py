"""The two routes of a cohort parse give the same result.

A cohort file that is ASCII and holds no quote, carriage return or NUL is
cut into cells by numpy (the byte route); any other file is read by the csv
module (the csv route, ``csvio.read_blocks``). A derandomised property test
mutates a quote-free pupil file that spans several blocks of either route
and checks that ``parse_pupils`` gives the columns, dtypes and issues the
csv route gives on the same bytes. Two guards check which route a file
takes, so that the byte route cannot be dropped silently.
"""

import csv

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from vamkit import cohort
from vamkit.categories import PUPIL_FIELDS, SCHOOL_FIELDS
from vamkit.cli import run
from vamkit.cohort import PUPIL_COLUMNS, parse_pupils, parse_schools
from vamkit.csvio import _BLOCK_ROWS

N_ROWS = 2 * _BLOCK_ROWS + 5
WIDTH = len(PUPIL_COLUMNS)
LONG_CELL = "P" + "x" * cohort._GATHER_CAP  # longer than the byte route gathers

# cells a mutation writes into any column: bad spellings, case and space
# variants of good ones, numbers float() reads oddly, and a missing ks2_group
CELLS = [
    "", " ", "\t", "x", "MALE", " female", "Female\t", "white  british", "GYPSY/ROMA",
    "english ", "SEN SUPPORT", "Eligible", "0", "1", " 1", "1 ", "10", "11", "34", "35",
    "-1", "nan", "inf", "-inf", "1e309", "4_1", "+7", ".5", "90", "90.0000001", "91",
    "\x0b", "\x1c", "P00000001", "S1",
]
# whole lines a mutation inserts: blank, whitespace-only and comma-only
LINES = ["", " ", "\t", " \t ", ",", "," * (WIDTH - 1), " ," * (WIDTH - 1) + " ", "," * WIDTH]


def _base_rows() -> list[str]:
    """N_ROWS good pupil rows, cycling through every level of each column."""
    rows = []
    for r in range(1, N_ROWS + 1):
        cells = [f"P{r:06d}", f"S{r % 13:03d}", f"{r * 7919 % 9001 / 100:g}"]
        for f in PUPIL_FIELDS[3:]:
            cells.append(f.spellings[r * (3 + len(cells)) % len(f.spellings)])
        rows.append(",".join(cells))
    return rows


BASE = _base_rows()
HEADER = ",".join(PUPIL_COLUMNS)
# rows at either route's block boundaries, which edits favour
_offsets = np.cumsum([len(HEADER) + 1] + [len(row) + 1 for row in BASE])
_byte_edge = int(np.searchsorted(_offsets, cohort._BLOCK_BYTES))
EDGES = sorted(
    {r + d for r in (_BLOCK_ROWS, 2 * _BLOCK_ROWS, _byte_edge) for d in (-2, -1, 0, 1)}
)


# edits made in every example, at drawn rows: each kind of line the byte
# route must send to the Python split, and each kind of odd cell
COVER = [("line", 0, text) for text in LINES] + [
    ("wide", 0, None), ("narrow", 4, None), ("pad", 0, " "), ("pad", 0, "\t"),
    ("pad", 6, "  "), ("cell", 0, " "), ("cell", 3, ""), ("cell", 2, "nan"),
    ("cell", 2, "inf"), ("cell", 2, "4_1"), ("cell", 2, "91"), ("cell", 5, "MALE"),
    ("cell", 6, "Martian"), ("cell", 9, "yes"),
    # an id over 64 characters, and one that is within them once stripped
    ("cell", 0, "P" * 65), ("cell", 1, " " + "S" * 64 + " "),
]


@st.composite
def edits(draw):
    row = draw(st.one_of(st.integers(0, N_ROWS - 1), st.sampled_from(EDGES)))
    kind = draw(st.sampled_from(["cell", "pad", "line", "wide", "narrow", "long"]))
    column = draw(st.integers(0, WIDTH - 1))
    if kind == "cell":
        return row, kind, column, draw(st.sampled_from(CELLS))
    if kind == "pad":
        return row, kind, column, draw(st.sampled_from([" ", "\t", "  ", " \t"]))
    if kind == "line":
        return row, kind, column, draw(st.sampled_from(LINES))
    return row, kind, column, None


def mutate(rows: list[str], row: int, kind: str, column: int, text) -> None:
    cells = rows[row].split(",")
    column %= len(cells)
    if kind == "cell":
        cells[column] = text
    elif kind == "pad":  # lead, trail or surround the cell with whitespace
        cells[column] = [text + cells[column], cells[column] + text, text + cells[column] + text][
            row % 3
        ]
    elif kind == "line":
        rows.insert(row, text)
        return
    elif kind == "wide":
        cells.append(cells[column])
    elif kind == "narrow":
        del cells[column]
    else:
        cells[column] = LONG_CELL
    rows[row] = ",".join(cells)


def assert_same_parse(got, expected):
    (table, issues), (want, want_issues) = got, expected
    assert issues == want_issues
    assert list(table.columns) == list(want.columns)
    for name, col in want.columns.items():
        assert table[name].dtype == col.dtype, name
        assert np.array_equal(table[name], col, equal_nan=col.dtype.kind == "f"), name


# no shrink phase: a failure is reported on its first example, not minutes later
@settings(
    max_examples=12,
    derandomize=True,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(
    at=st.lists(st.integers(0, N_ROWS - 1), min_size=len(COVER), max_size=len(COVER)),
    changes=st.lists(edits(), max_size=40),
    final_newline=st.booleans(),
)
def test_byte_route_parses_as_the_csv_route(at, changes, final_newline):
    rows = list(BASE)
    for row, (kind, column, text) in zip(at, COVER):
        mutate(rows, row, kind, column, text)
    for change in changes:
        mutate(rows, *change)
    data = "\n".join([HEADER, *rows]).encode() + (b"\n" if final_newline else b"")
    assert cohort._tokenizable(data)
    expected = cohort._parse_text(data, PUPIL_FIELDS, "pupil CSV")
    assert_same_parse(parse_pupils(data), expected)
    if not any(kind == "long" for _, kind, _, _ in changes):
        # the cells fit the gather, so the byte route itself gave that result
        assert_same_parse(cohort._parse_bytes(data, PUPIL_FIELDS, "pupil CSV"), expected)


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("routes")
    assert run(["simulate", "--seed", "0", "--schools", "40", "--out", str(out)]) == 0
    return (out / "pupils.csv").read_bytes(), (out / "schools.csv").read_bytes()


def test_simulate_output_takes_the_byte_route(small_cohort, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called for a quote-free ASCII cohort file")

    monkeypatch.setattr(csv, "reader", refuse)
    pupils, schools = small_cohort
    for parse, data in ((parse_pupils, pupils), (parse_schools, schools)):
        table, issues = parse(data)
        assert len(table) > 0 and issues == []


def test_category_hash_collisions_fall_back_to_str(small_cohort, monkeypatch):
    # with the hash's multiplier 0 a category cell's key is its last 8-byte
    # word, so spellings that end alike collide: the byte route notices and
    # matches that block's cells by str, and the parse is unchanged
    pupils, _ = small_cohort
    expected = cohort._parse_text(pupils, PUPIL_FIELDS, "pupil CSV")
    fell_back = []
    encode_column = cohort._encode_column

    def recorded(f, *args):
        fell_back.append(f.name)
        return encode_column(f, *args)

    monkeypatch.setattr(cohort, "_MIX", np.uint64(0))
    monkeypatch.setattr(cohort, "_encode_column", recorded)
    assert_same_parse(cohort._parse_bytes(pupils, PUPIL_FIELDS, "pupil CSV"), expected)
    assert set(fell_back) == {"ethnicity", "month_of_birth"}


@pytest.mark.parametrize("variant", ["quoted id", "crlf", "bom"])
def test_other_files_take_the_csv_route(small_cohort, monkeypatch, variant):
    pupils, schools = small_cohort
    expected = [
        cohort._parse_text(pupils, PUPIL_FIELDS, "pupil CSV"),
        cohort._parse_text(schools, SCHOOL_FIELDS, "school CSV"),
    ]
    calls = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *a, **k: calls.append(1) or reader(*a, **k))
    for parse, data, want in zip((parse_pupils, parse_schools), small_cohort, expected):
        if variant == "quoted id":
            head, first, rest = data.split(b"\n", 2)
            cells = first.split(b",")
            data = b"\n".join([head, b",".join([b'"' + cells[0] + b'"', *cells[1:]]), rest])
        elif variant == "crlf":
            data = data.replace(b"\n", b"\r\n")
        else:
            data = b"\xef\xbb\xbf" + data
        calls.clear()
        assert_same_parse(parse(data), want)
        assert calls, variant
