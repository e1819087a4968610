"""The two routes of a cohort parse give the same result.

A cohort file that is ASCII and holds no quote, carriage return or NUL is
cut into cells by numpy (the byte route); any other file is read by the csv
module (the csv route, ``csvio.read_blocks``). A derandomised property test
mutates a quote-free pupil file that spans several blocks of either route
and checks that ``parse_pupils`` gives the columns, dtypes and issues the
csv route gives on the same bytes. Two guards check which route a file
takes, so that the byte route cannot be dropped silently. A file is read
once, forward, as a stream, by one loop of ``readinto`` calls that both
routes share, so the route can change late: from the line of
a quote, a byte past ASCII or a carriage return in any block, the csv
route reads the rest of the same stream, and a line longer than a block,
or a cell the csv module refuses, must read as on that route too.
Ids are stripped as ``str.strip`` strips them and held as UTF-8 bytes on
either route, and schools sort in code-point order.
"""

import codecs
import csv
import dataclasses
import hashlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from vamkit import cli, cohort, csvio
from vamkit.categories import PUPIL_FIELDS, SCHOOL_FIELDS
from vamkit.cli import run
from vamkit.cohort import PUPIL_COLUMNS, parse_pupils, parse_schools
from vamkit.compare import SCORE_COLUMNS, SchoolScore
from vamkit.csvio import _BLOCK_ROWS, read_blocks
from vamkit.errors import CohortError

from conftest import random_cohort

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
# whole lines a mutation inserts: blank, whitespace-only and comma-only,
# and lines of the whitespace str.strip() strips but bytes.strip() keeps
LINES = [
    "", " ", "\t", " \t ", ",", "," * (WIDTH - 1), " ," * (WIDTH - 1) + " ", "," * WIDTH,
    "\x0b", "\x0c\x1c", ",\x1d,\x1e", "\x1f," * (WIDTH - 1) + "\x0b", ",\x0c" * (WIDTH - 1),
]


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
_byte_edge = int(np.searchsorted(_offsets, csvio._BLOCK_BYTES))
EDGES = sorted(
    {r + d for r in (_BLOCK_ROWS, 2 * _BLOCK_ROWS, _byte_edge) for d in (-2, -1, 0, 1)}
)


# edits made in every example, at drawn rows: each kind of line the byte
# route must look at one by one, and each kind of odd cell
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


def counted_csv_reader(monkeypatch) -> list:
    """csv.reader, appending to the returned list on each call."""
    calls = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *a, **k: calls.append(1) or reader(*a, **k))
    return calls


def csv_parse(data, fields=PUPIL_FIELDS, what="pupil CSV"):
    """The parse of the csv route alone: every row read by the csv module."""
    issues = []
    blocks = read_blocks(data, tuple(f.name for f in fields), what, issues)
    rows = ((zip(*rows), row_nos) for rows, row_nos in blocks)
    return cohort._columns(fields, rows, issues)


def byte_route(data: bytes):
    """parse_pupils of a file that must not leave the byte route: the csv
    module's reader is not called."""
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called: the file left the byte route")

    with mock.patch.object(csv, "reader", refuse):
        return parse_pupils(data)


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
    expected = csv_parse(data)
    assert_same_parse(parse_pupils(data), expected)
    # a column with a cell too long to gather is cut into str, but the
    # file stays on the byte route
    assert_same_parse(byte_route(data), expected)


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
    expected = csv_parse(pupils)
    fell_back = []
    encode_column = cohort._encode_column

    def recorded(f, *args):
        fell_back.append(f.name)
        return encode_column(f, *args)

    monkeypatch.setattr(cohort, "_MIX", np.uint64(0))
    monkeypatch.setattr(cohort, "_encode_column", recorded)
    assert_same_parse(byte_route(pupils), expected)
    assert set(fell_back) == {"ethnicity", "month_of_birth"}


def test_long_cell_moves_only_its_own_column(small_cohort, monkeypatch):
    # a 300-byte id is over the gather's cap: its column is cut into str
    # and encoded from them, every other column is gathered as bytes
    pupils, _ = small_cohort
    head, first, rest = pupils.split(b"\n", 2)
    long_id = b"P" * 300
    data = b"\n".join([head, long_id + first[first.index(b","):], rest])
    expected = csv_parse(data)
    assert [(i.row, i.column) for i in expected[1]] == [(1, "pupil_id")]
    as_str = []
    encode_column = cohort._encode_column

    def recorded(f, *args):
        as_str.append(f.name)
        return encode_column(f, *args)

    monkeypatch.setattr(cohort, "_encode_column", recorded)
    assert_same_parse(byte_route(data), expected)
    assert as_str == ["pupil_id"]


@pytest.mark.parametrize("variant", ["quoted id", "crlf", "bom"])
def test_other_files_take_the_csv_route(small_cohort, monkeypatch, variant):
    pupils, schools = small_cohort
    expected = [
        csv_parse(pupils),
        csv_parse(schools, SCHOOL_FIELDS, "school CSV"),
    ]
    calls = counted_csv_reader(monkeypatch)
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


def test_quote_in_the_last_block_switches_to_the_csv_route(tmp_path, monkeypatch):
    sim = tmp_path / "sim"
    assert run(["simulate", "--seed", "612", "--schools", "300", "--out", str(sim)]) == 0
    data = (sim / "pupils.csv").read_bytes()
    # the last pupil's id quoted: the csv module reads it as the bare id
    head, last = data[:-1].rsplit(b"\n", 1)
    pupil_id, rest = last.split(b",", 1)
    quoted = head + b'\n"' + pupil_id + b'",' + rest + b"\n"
    assert len(quoted) > 4 * csvio._BLOCK_BYTES
    assert quoted.index(b'"') > len(quoted) - csvio._BLOCK_BYTES // 2
    pupils = tmp_path / "pupils.csv"
    pupils.write_bytes(quoted)

    calls = counted_csv_reader(monkeypatch)
    fits = {}
    for name, path in (("bare", sim / "pupils.csv"), ("quoted", pupils)):
        fits[name] = tmp_path / name
        argv = ["fit", "--pupils", str(path), "--schools", str(sim / "schools.csv"),
                "--measures", "ap8", "--out", str(fits[name])]
        assert run(argv) == 0
    assert calls, "the quote did not send the file to the csv route"
    manifest = json.loads((fits["quoted"] / "manifest.json").read_text())
    assert manifest["inputs"][str(pupils)] == hashlib.sha256(quoted).hexdigest()
    for name in ("coefficients_ap8.csv", "school_scores_ap8.csv", "summary.csv"):
        assert (fits["quoted"] / name).read_bytes() == (fits["bare"] / name).read_bytes(), name
    expected = csv_parse(quoted)
    assert_same_parse(parse_pupils(quoted), expected)
    assert_same_parse(parse_pupils(data), expected)


class Pipe:
    """A binary stream that, as a pipe, cannot seek: it records each seek
    or tell asked of it and the bytes each read asks for. It has no
    ``read``: both routes read through one ``readinto`` loop."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)
        self.asked, self.sought = [], []

    def seekable(self):
        return False

    def seek(self, *args):
        self.sought.append(args)
        raise io.UnsupportedOperation("seek")

    def tell(self):
        self.sought.append("tell")
        raise io.UnsupportedOperation("tell")

    def readinto(self, buffer):
        self.asked.append(len(buffer))
        return self._data.readinto(buffer)


# the rows of a file of four byte-route blocks, and where each row's line
# starts in it (the last entry: the file's size)
SWITCH_ROWS = BASE + BASE
_row_starts = np.cumsum([len(HEADER) + 1] + [len(row) + 1 for row in SWITCH_ROWS])


def _switch_row(where: str) -> int:
    """A row (0-based) in the first, a middle or the last byte-route block."""
    at = {"first": 5000, "middle": int(2.5 * csvio._BLOCK_BYTES), "last": int(_row_starts[-1]) - 10}
    return int(np.searchsorted(_row_starts, at[where], side="right")) - 1


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("edit", ["quote", "non-ascii", "cr"])
def test_unfit_byte_in_any_block_switches_routes_in_one_pass(monkeypatch, edit, where):
    rows = list(SWITCH_ROWS)
    r = _switch_row(where)
    cells = rows[r].split(",")
    if edit == "quote":
        cells[0] = f'"{cells[0]}"'
    elif edit == "non-ascii":
        cells[0] += "é"
    rows = rows[:r] + [",".join(cells) + ("\r" if edit == "cr" else "")] + rows[r + 1:]
    # bad rows on either side of the switch: their issues name their rows
    for i, kind in ((100, "wide"), (len(rows) - 2, "narrow")):
        mutate(rows, i, kind, 3, None)
    mutate(rows, len(rows) - 3, "cell", 6, "Martian")
    data = ("\n".join([HEADER, *rows]) + "\n").encode()
    assert len(data) > 3 * csvio._BLOCK_BYTES
    assert not cohort._tokenizable(data)
    expected = csv_parse(data)
    assert [i.row for i in expected[1]] == [101, len(rows) - 2, len(rows) - 1]
    calls = counted_csv_reader(monkeypatch)
    pipe = Pipe(data)
    assert_same_parse(parse_pupils(pipe), expected)
    assert calls, "the file did not switch to the csv route"
    assert pipe.sought == []
    assert pipe.asked and all(0 < n < len(data) for n in pipe.asked), pipe.asked


def test_bom_score_file_reads_from_a_pipe():
    # a score file that compare reads, with a BOM, quoted and non-ASCII
    # cells, over more than two blocks of bytes
    names = [f.name for f in dataclasses.fields(SchoolScore)]
    rows = [[f"S{i:05d}", "ap8", f"{i / 7:.6f}", f"{i % 97}", *["0.5"] * (len(names) - 4)]
            for i in range(40_000)]
    rows[3][0], rows[-2][0] = '"S,3"', "Sé"
    text = "\n".join(map(",".join, [names, *rows])) + "\n"
    data = codecs.BOM_UTF8 + text.encode()
    assert len(data) > 2 * csvio._BLOCK_BYTES
    expected = [tuple(row) for row in csv.reader(io.StringIO(text, newline=""))][1:]
    issues, pipe = [], Pipe(data)
    blocks = list(read_blocks(pipe, names, "school_scores CSV", issues))
    assert [row for rows, _ in blocks for row in rows] == expected
    assert [n for _, row_nos in blocks for n in row_nos] == list(range(1, len(rows) + 1))
    assert issues == [] and pipe.sought == []
    assert pipe.asked and all(0 < n < len(data) for n in pipe.asked), pipe.asked


def test_line_longer_than_a_block_reads_as_on_the_csv_route(monkeypatch):
    # a wrong-width line of more than a block's bytes between good rows
    wide = ",".join(["x"] * (csvio._BLOCK_BYTES // 2 + 1))
    data = "\n".join([HEADER, BASE[0], wide, *BASE[1:50]]).encode()
    assert len(data) > csvio._BLOCK_BYTES and cohort._tokenizable(data)
    expected = csv_parse(data)
    assert [(i.row, i.column) for i in expected[1]] == [(2, "(row)")]
    calls = counted_csv_reader(monkeypatch)
    assert_same_parse(parse_pupils(data), expected)
    assert not calls


def _over_limit_cell() -> bytes:
    """An unquoted cell one character over the csv module's limit: the csv
    module refuses it, quoted or not."""
    cells = BASE[1].split(",")
    cells[0] = "P" * (csv.field_size_limit() + 1)
    return "\n".join([HEADER, BASE[0], ",".join(cells), *BASE[2:50]]).encode()


def _blank_line_over_limit() -> bytes:
    """A line of spaces and commas whose first cell is over the csv
    module's limit: the limit is checked before the line is skipped as
    blank."""
    line = " " * (csv.field_size_limit() + 1) + "," * (WIDTH - 1)
    return "\n".join([HEADER, BASE[0], line, *BASE[1:50]]).encode()


def _bad_header_and_late_byte() -> bytes:
    """A wrong header and a byte that is not UTF-8 in the last block: the
    file is read forward, so the header, which comes first, is reported."""
    data = "\n".join([HEADER.replace("gender", "sex"), *BASE]).encode()
    return data[:-100] + b"\xff" + data[-100:]


@pytest.mark.parametrize(
    "make, fragment",
    [
        (_over_limit_cell, "field larger than field limit"),
        (_blank_line_over_limit, "field larger than field limit"),
        (_bad_header_and_late_byte, "header mismatch"),
    ],
    ids=["cell-over-field-limit", "blank-cell-over-field-limit", "bad-header-and-late-byte"],
)
def test_faults_fail_as_on_the_csv_route(monkeypatch, make, fragment):
    # the byte route meets these before it has read the whole file; its
    # error is the one the csv route gives over the same bytes
    data = make()
    with pytest.raises(CohortError) as csv_route:
        csv_parse(data)
    calls = counted_csv_reader(monkeypatch)
    with pytest.raises(CohortError) as parsed:
        parse_pupils(data)
    assert str(parsed.value) == str(csv_route.value)
    assert fragment in str(parsed.value)
    if cohort._tokenizable(data):
        assert calls


# each ASCII character str.strip() strips that a quote-free line can hold:
# "\n" ends the line and "\r" sends the file to the csv route
EDGE_SPACES = [c for c in map(chr, range(128)) if c.isspace() and c not in "\n\r"]


def test_ids_with_ascii_whitespace_at_either_edge_read_as_on_the_csv_route():
    # bytes.strip and numpy's bytes strip keep "\x1c"-"\x1f"; str.strip drops them
    rows = list(BASE[:_BLOCK_ROWS + 50])
    for i, c in enumerate(EDGE_SPACES):
        for j, column in enumerate((0, 1)):
            for k, pad in enumerate((c + "{}", "{}" + c, c + "{}" + c)):
                r = 1 + 24 * i + 8 * j + k
                cells = rows[r].split(",")
                cells[column] = pad.format(cells[column])
                rows[r] = ",".join(cells)
    data = "\n".join([HEADER, *rows]).encode() + b"\n"
    assert cohort._tokenizable(data)
    expected = csv_parse(data)
    assert_same_parse(byte_route(data), expected)
    table, issues = expected
    assert issues == [] and table["pupil_id"].dtype == np.dtype("S7")
    assert cohort.decode_ids(table["pupil_id"]) == [row.split(",")[0] for row in BASE[:len(rows)]]
    assert cohort.decode_ids(table["school_id"]) == [row.split(",")[1] for row in BASE[:len(rows)]]


def test_non_ascii_ids_take_the_csv_route_as_utf8_bytes(monkeypatch):
    # the 64-character rule counts characters: 64 "é" (128 bytes) are kept
    # and 65 are an issue; str.strip also drops spaces past ASCII
    ids = {1: "Zoë", 2: "学校", 3: " S€ ", 4: "é" * 64, 5: "é" * 65, 6: " \x1cP😀\x1f "}
    rows = list(BASE[:40])
    for r, text in ids.items():
        cells = rows[r].split(",")
        cells[r % 2] = text
        rows[r] = ",".join(cells)
    data = "\n".join([HEADER, *rows]).encode() + b"\n"
    calls = counted_csv_reader(monkeypatch)
    table, issues = parse_pupils(data)
    assert calls
    reason = "must be at most 64 characters, got 65"
    assert [(i.row, i.column, i.reason) for i in issues] == [(6, "school_id", reason)]
    kept = [row.split(",") for r, row in enumerate(rows) if r != 5]
    for column, name in enumerate(("pupil_id", "school_id")):
        want = np.array([cells[column].strip().encode() for cells in kept])
        assert table[name].dtype == want.dtype and np.array_equal(table[name], want), name
    assert table["pupil_id"].dtype == np.dtype("S128")


def test_schools_sort_by_code_point(tmp_path):
    # UTF-8 byte order is code-point order: the school order is sorted()'s
    ids = ["Sz", "Sé", "S€", "S\x7f", "S😀"]
    base = random_cohort(3, n_schools=len(ids), pupils_per_school=6)
    renamed = dict(zip(cohort.decode_ids(base.school_table["school_id"]), ids))
    pupils = base.pupil_table.replace(
        school_id=np.array([renamed[s] for s in cohort.decode_ids(base.pupil_table["school_id"])])
    )
    schools = base.school_table.replace(school_id=np.array(ids))
    (tmp_path / "pupils.csv").write_bytes(b"".join(cohort.serialize_blocks(pupils)))
    (tmp_path / "schools.csv").write_bytes(b"".join(cohort.serialize_blocks(schools)))
    table = cohort.validate_cohort(
        parse_pupils((tmp_path / "pupils.csv").read_bytes())[0],
        parse_schools((tmp_path / "schools.csv").read_bytes())[0],
    ).school_table
    assert cohort.decode_ids(table["school_id"]) == sorted(ids)
    argv = ["fit", "--pupils", str(tmp_path / "pupils.csv"), "--schools", str(tmp_path / "schools.csv"),
            "--measures", "a8", "--out", str(tmp_path / "fit")]
    assert run(argv) == 0
    with open(tmp_path / "fit" / "school_scores_a8.csv", newline="", encoding="utf-8") as fh:
        assert [row[0] for row in csv.reader(fh)][1:] == sorted(ids)


# --- csvio.read_blocks: the split route against the csv route ---------------

SCORE_NAMES = list(SCORE_COLUMNS)
SCORE_HEADER = ",".join(SCORE_NAMES)
# over this test's lowered field limit, and under it
LIMIT = 40


def _score_row(i: int) -> str:
    return f"S{i:04d},ap8,{i / 7:.6f},{i % 97},-0.5,0.{i},not_significant"


# lines a score file may hold: good rows, blank and whitespace-only lines,
# rows of the wrong width, a cell over the limit, and lines that send
# their block to the csv route (non-ASCII, quote, carriage return, NUL)
SCORE_LINES = {
    "row": None, "empty": "", "space": " ", "tab": "\t", "commas": ",,,,,,",
    "blank-cells": " ,\t, , ,\x0b, ,\x1f", "wide": _score_row(1) + ",x", "narrow": "S1,ap8,0.1",
    "comma-line": ",", "long": "S" * (LIMIT + 1) + _score_row(1)[5:], "long-alone": "S" * (LIMIT + 1),
    "long-blank": " " * (LIMIT + 1) + ",,,,,,", "non-ascii": "Sé" + _score_row(1)[5:],
    "quote": '"S,1"' + _score_row(1)[5:], "cr": _score_row(1) + "\r", "nul": "S\0" + _score_row(1)[5:],
}


def read_both(data: bytes, tokenizable=csvio._tokenizable):
    """Every block ``read_blocks`` yields (rows, numbers, issues so far),
    its issues and its error, with small blocks of bytes and rows so that a
    short file spans many of each, and the csv module's field limit
    lowered."""
    issues, blocks, error = [], [], None
    old = csv.field_size_limit(LIMIT)
    try:
        with mock.patch.multiple(csvio, _BLOCK_BYTES=256, _BLOCK_ROWS=5, _tokenizable=tokenizable):
            for rows, row_nos in read_blocks(data, SCORE_NAMES, "school_scores CSV", issues):
                blocks.append((list(rows), list(row_nos), len(issues)))
    except CohortError as exc:
        error = str(exc)
    finally:
        csv.field_size_limit(old)
    return blocks, issues, error


@settings(max_examples=60, derandomize=True, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    # about half good rows, so that some blocks hold nothing else
    kinds=st.lists(st.one_of(st.just("row"), st.sampled_from(list(SCORE_LINES))), max_size=60),
    bom=st.booleans(),
    final_newline=st.booleans(),
)
def test_read_blocks_splits_as_the_csv_module_reads(kinds, bom, final_newline):
    lines = [_score_row(i) if k == "row" else SCORE_LINES[k] for i, k in enumerate(kinds)]
    text = "\n".join([SCORE_HEADER, *lines]) + ("\n" if final_newline else "")
    data = (codecs.BOM_UTF8 if bom else b"") + text.encode()
    split = read_both(data)
    assert split == read_both(data, tokenizable=lambda data: False)
    if split[2] is None:
        rows = [row for block, _, _ in split[0] for row in block]
        kept = [k for k in kinds if k in ("row", "non-ascii", "quote", "cr", "nul")]
        assert len(rows) == len(kept)


def test_score_file_takes_the_split_route(monkeypatch, tmp_path):
    # a score file fit writes is ASCII with no quote: csv.reader reads
    # its header's line and no other
    rows = [_score_row(i) for i in range(2000)]
    path = tmp_path / "scores.csv"
    path.write_text("\n".join([SCORE_HEADER, *rows]) + "\n")
    assert len(path.read_bytes()) > csvio._BLOCK_BYTES // 8
    read = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda lines: read.append(list(lines)) or reader(read[-1]))
    columns = cli._read_school_scores(path, {})
    assert read == [[SCORE_HEADER]]
    assert columns["school_id"] == [row.split(",")[0] for row in rows]
    assert columns["score"] == [float(row.split(",")[2]) for row in rows]


def _score_fault(index: int, cell: str) -> str:
    rows = [_score_row(i).split(",") for i in range(1, 300)]
    rows[250][index] = cell
    return "\n".join([SCORE_HEADER, *map(",".join, rows)]) + "\n"


# one score file per error message of cli._read_school_scores and the
# reader under it, each fault after a few good rows
SCORE_FAULTS = {
    "wrong-width": (_score_fault(6, "not_significant,x"), "expected 7 fields, got 8"),
    "empty-id": (_score_fault(0, " "), "column school_id: must not be empty"),
    "long-id": (_score_fault(0, "S" * 65), "must be at most 64 characters"),
    "nul-id": (_score_fault(0, "S\0"), "must not contain a NUL character"),
    "bad-measure": (_score_fault(1, "zz"), "column measure: unknown value 'zz'"),
    "mixed-measures": (_score_fault(1, "p8"), "expected ap8 as in row 1, got p8"),
    "not-a-number": (_score_fault(2, "x"), "could not convert string to float: 'x'"),
    "not-finite": (_score_fault(4, "inf"), "must be a finite number, got 'inf'"),
    "bad-count": (_score_fault(3, "1.5"), "invalid literal for int()"),
    "bad-category": (_score_fault(6, "great"), "column category: unknown value 'great'"),
    "over-limit": (_score_fault(2, "1" * 200_000), "field larger than field limit"),
    "header": (_score_fault(0, "S1").replace("ci_low", "ci_lo"), "header mismatch"),
    "blank-header": ("\n" + _score_fault(0, "S1"), "header mismatch (missing columns: school_id"),
    "empty": ("", "file is empty"),
    "not-utf8": (_score_fault(0, "S\udcff"), "is not valid UTF-8"),
}


@pytest.mark.parametrize("case", list(SCORE_FAULTS))
def test_score_file_faults_read_as_on_the_csv_route(tmp_path, case):
    text, fragment = SCORE_FAULTS[case]
    path = tmp_path / "scores.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    messages = []
    for tokenizable in (csvio._tokenizable, lambda data: False):
        with mock.patch.object(csvio, "_tokenizable", tokenizable):
            with pytest.raises(CohortError) as exc:
                cli._read_school_scores(path, {})
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert fragment in messages[0]


# --- the byte route's spelling tables ---------------------------------------


def unique_path(data: bytes):
    """parse_pupils with every category block coded by np.unique: the
    spelling tables never hit."""
    with mock.patch.object(cohort._SpellingTable, "encode", lambda *args: None):
        return byte_route(data)


def _edited(edits: dict[int, dict[int, str]]) -> bytes:
    """SWITCH_ROWS, four byte-route blocks, with the given cells replaced."""
    rows = [row.split(",") for row in SWITCH_ROWS]
    for r, cells in edits.items():
        for column, text in cells.items():
            rows[r][column] = text
    return "\n".join([HEADER, *map(",".join, rows)]).encode() + b"\n"


# the first row of each byte-route block of SWITCH_ROWS after the first,
# give or take a row that an edit lengthens
EDGES4 = [int(np.searchsorted(_row_starts, k * csvio._BLOCK_BYTES)) for k in (1, 2, 3)]
MID = [EDGES4[0] // 2] + [(a + b) // 2 for a, b in zip(EDGES4, EDGES4[1:] + [len(SWITCH_ROWS)])]
TABLE_CASES = {
    # spellings first seen in the last block
    "late-variant": {MID[3]: {5: " FEMALE ", 3: "07"}},
    # a bad spelling in the first block and again after its table is built
    "bad-again": {MID[0]: {6: "Martian"}, MID[2]: {6: "Martian"}, MID[3]: {4: "Smarch"}},
    "variants-everywhere": {
        r: {5: ["MALE", " female", "Female\t"][r % 3], 6: "white  british", 8: "SEN SUPPORT"}
        for r in range(0, len(SWITCH_ROWS), 97)
    },
    # a wider ethnicity cell makes one block's gathered width 40, not 32
    "wider-block": {MID[1]: {6: "Traveller of Irish Heritage" + " " * 8}},
    # only short month spellings in the second block: width 8, not 16
    "narrower-block": {r: {4: "May"} for r in range(EDGES4[0] - 50, EDGES4[1] + 50)},
    # a new spelling in each block: the tables miss twice in a row and are
    # given up before the last block
    "variant-each-block": {r: {5: ["fEMALE", "FeMALE", "FEmALE", "FEMaLE"][k], 9: "N" * (k + 1)}
                           for k, r in enumerate(MID)},
}


@pytest.mark.parametrize("case", list(TABLE_CASES))
def test_spelling_tables_code_as_the_unique_path(case):
    data = _edited(TABLE_CASES[case])
    assert cohort._tokenizable(data)
    expected = unique_path(data)
    assert_same_parse(byte_route(data), expected)
    assert_same_parse(expected, csv_parse(data))


def test_spelling_table_slot_collisions_code_as_the_unique_path(monkeypatch):
    # two slots at most: learned spellings share slots, and a block that
    # holds one left out of its table takes the np.unique path
    data = _edited(TABLE_CASES["variants-everywhere"])
    expected = unique_path(data)
    monkeypatch.setattr(cohort, "_SLOT_BITS", 1)
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: (
        k.get("return_inverse") and sorts.append(1)) or unique(*a, **k))
    assert_same_parse(byte_route(data), expected)
    assert len(sorts) > 3 * 4  # most of the four blocks of most columns missed


def test_spelling_table_checks_every_word(monkeypatch):
    # one slot: of two spellings that share their first 8-byte word, the
    # one left out of the table must miss, not take the other's code
    monkeypatch.setattr(cohort, "_SLOT_BITS", 0)
    spellings = [b"Any Other White Background", b"Any Other Black Background"]
    cells = np.zeros((2, 32), dtype=np.uint8)
    for row, text in zip(cells, spellings):
        row[: len(text)] = list(text)
    words = cells.view(np.uint64)
    keys = cohort._keys(words)
    table = cohort._SpellingTable()
    table.learn(words, np.array([4, 7], dtype=np.int8))
    assert table.encode(keys[:1], words[:1]).tolist() == [4]
    assert table.encode(keys[1:], words[1:]) is None
    assert table.encode(keys, words) is None


def test_spelling_table_is_given_up_after_two_misses_in_a_row():
    cells = np.zeros((3, 8), dtype=np.uint8)
    for row, text in zip(cells, (b"Female", b"FEMALE", b"female")):
        row[: len(text)] = list(text)
    words = cells.view(np.uint64)
    keys = cohort._keys(words)
    table = cohort._SpellingTable()
    table.learn(words[:1], np.array([1], dtype=np.int8))
    assert table.encode(keys[1:2], words[1:2]) is None
    table.learn(words[1:2], np.array([1], dtype=np.int8))
    assert table.encode(keys[:2], words[:2]).tolist() == [1, 1]
    assert table.encode(keys[2:], words[2:]) is None
    assert table.encode(keys[:1], words[:1]).tolist() == [1]  # a hit ends the run
    assert table.encode(keys[2:], words[2:]) is None
    assert table.encode(keys[2:], words[2:]) is None
    table.learn(words[2:], np.array([1], dtype=np.int8))
    assert table.encode(keys[:1], words[:1]) is None and len(table.known) == 2


@pytest.fixture(scope="module")
def default_cohort_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("default")
    assert run(["simulate", "--seed", "612", "--schools", "300", "--out", str(out)]) == 0
    return (out / "pupils.csv").read_bytes(), (out / "schools.csv").read_bytes()


def test_simulate_output_sorts_one_block_per_category_column(default_cohort_files, monkeypatch):
    # every later block of a simulated file is coded by its column's table
    pupils, schools = default_cohort_files
    assert len(pupils) > 5 * csvio._BLOCK_BYTES
    expected = unique_path(pupils)
    sorted_by = []
    encode_cells = cohort._encode_cells
    unique = np.unique

    def recorded(f, *args):
        def counted(*a, **k):
            if k.get("return_inverse"):
                sorted_by.append(f.name)
            return unique(*a, **k)

        monkeypatch.setattr(np, "unique", counted)
        try:
            return encode_cells(f, *args)
        finally:
            monkeypatch.setattr(np, "unique", unique)

    monkeypatch.setattr(cohort, "_encode_cells", recorded)
    assert_same_parse(byte_route(pupils), expected)
    categories = [f.name for f in PUPIL_FIELDS if f.levels]
    assert sorted(sorted_by) == sorted(categories)
