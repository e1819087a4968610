import codecs
import csv
import dataclasses
import gc
import io
import re
import sys
import warnings

import numpy as np
import pytest

from vamkit.categories import FIELD, PUPIL_FIELDS, SCHOOL_FIELDS, Kind, MeasureKind
from vamkit.cohort import (
    PUPIL_COLUMNS,
    SCHOOL_COLUMNS,
    CohortError,
    PupilRecord,
    SchoolRecord,
    Table,
    decode_ids,
    parse_pupils,
    parse_schools,
    serialize_blocks,
    unique_inverse,
    validate_cohort,
)
from vamkit.csvio import _BLOCK_BYTES, _BLOCK_ROWS, csv_bytes, read_blocks
from vamkit.errors import VamkitError, id_list
from vamkit.measures import compute_measure
from vamkit.synthgen import GeneratorConfig, generate_population

from conftest import make_cohort, make_pupil, make_school

PUPIL_HEADER = ",".join(PUPIL_COLUMNS)
SCHOOL_HEADER = ",".join(SCHOOL_COLUMNS)


def pupil_csv(*rows):
    return ("\n".join([PUPIL_HEADER, *rows]) + "\n").encode()


def school_csv(*rows):
    return ("\n".join([SCHOOL_HEADER, *rows]) + "\n").encode()


GOOD_PUPIL = "P1,S1,51.5,34,September,Female,White British,English,None,1,3"


# ---------------------------------------------------------------------------
# parse_pupils
# ---------------------------------------------------------------------------


def test_header_only_pupils():
    table, issues = parse_pupils(pupil_csv())
    assert len(table) == 0 and issues == []


def test_single_pupil_row_fields():
    table, issues = parse_pupils(pupil_csv(GOOD_PUPIL))
    assert issues == []
    (p,) = table.records()
    assert p.pupil_id == "P1" and p.school_id == "S1"
    assert p.attainment8_total == 51.5
    assert p.ks2_group == 34
    assert p.ethnicity == "White British"
    assert p.fsm is True
    assert p.idaci_decile == 3


def test_category_matching_is_case_and_space_insensitive():
    row = "P1,S1,40, 12 ,  october, FEMALE , gypsy/roma ,OTHER, sen SUPPORT ,0,10"
    table, issues = parse_pupils(pupil_csv(row))
    assert issues == []
    (p,) = table.records()
    assert p.month_of_birth == "October"
    assert p.gender == "Female"
    assert p.ethnicity == "Gypsy / Roma"
    assert p.first_language == "Other"
    assert p.sen == "SEN support"


def test_ks2_group_out_of_range_is_row_issue():
    table, issues = parse_pupils(
        pupil_csv("P1,S1,40,35,September,Male,White British,English,None,0,5")
    )
    assert len(table) == 0
    (issue,) = issues
    assert issue.row == 1 and issue.column == "ks2_group"
    assert "1..34" in issue.reason


def test_missing_ks2_group_is_allowed():
    table, issues = parse_pupils(
        pupil_csv("P1,S1,40,,September,Male,White British,English,None,0,5")
    )
    assert issues == []
    assert table.records()[0].ks2_group is None


def test_missing_required_field_is_issue():
    # empty string is only legal for ks2_group
    table, issues = parse_pupils(
        pupil_csv("P1,S1,40,3,September,,White British,English,None,0,5")
    )
    assert len(table) == 0
    assert issues[0].column == "gender"


def test_id_over_64_characters_is_issue():
    # 64 characters holds a SHA-256 hex pseudonym; the 65-character school
    # id is padded, and the limit applies once it is stripped
    ok, long = "P" * 64, "S" * 65
    table, issues = parse_pupils(
        pupil_csv(
            GOOD_PUPIL.replace("P1", ok),
            GOOD_PUPIL.replace("P1", "P2").replace("S1", f" {'S' * 63} "),
            GOOD_PUPIL.replace("P1", "P3").replace("S1", long),
        )
    )
    assert decode_ids(table["pupil_id"]) == [ok, "P2"]
    assert table["pupil_id"].dtype == np.dtype("S64")
    assert [(i.row, i.column, i.reason) for i in issues] == [
        (3, "school_id", "must be at most 64 characters, got 65")
    ]


def test_id_column_is_as_wide_as_its_longest_kept_id():
    # neither a skipped row's id nor a kept id's padding sets the width
    table, issues = parse_pupils(
        pupil_csv(
            GOOD_PUPIL.replace("P1", "P" * 40).replace("Female", "?"),
            GOOD_PUPIL.replace("P1", "  P2  "),
        )
    )
    assert [i.column for i in issues] == ["gender"]
    assert decode_ids(table["pupil_id"]) == ["P2"] and table["pupil_id"].dtype == np.dtype("S2")


def test_attainment_out_of_bounds():
    bad_hi = "P1,S1,90.5,3,September,Male,White British,English,None,0,5"
    bad_lo = "P2,S1,-1,3,September,Male,White British,English,None,0,5"
    table, issues = parse_pupils(pupil_csv(bad_hi, bad_lo))
    assert len(table) == 0
    assert [i.column for i in issues] == ["attainment8_total", "attainment8_total"]
    assert issues[0].row == 1 and issues[1].row == 2


def test_fsm_must_be_binary():
    table, issues = parse_pupils(
        pupil_csv("P1,S1,40,3,September,Male,White British,English,None,yes,5")
    )
    assert len(table) == 0 and issues[0].column == "fsm"


def test_unknown_category_skips_row_and_keeps_rest():
    table, issues = parse_pupils(
        pupil_csv(
            "P1,S1,40,3,September,Male,Martian,English,None,0,5",
            GOOD_PUPIL.replace("P1", "P2"),
        )
    )
    assert decode_ids(table["pupil_id"]) == ["P2"]
    assert issues[0].column == "ethnicity"
    assert "Martian" in issues[0].reason


def test_missing_header_column_fatal():
    broken = PUPIL_HEADER.replace(",sen", "")
    with pytest.raises(CohortError, match="sen"):
        parse_pupils((broken + "\n").encode())


def test_reordered_header_fatal():
    cols = list(PUPIL_COLUMNS)
    cols[0], cols[1] = cols[1], cols[0]
    with pytest.raises(CohortError, match="out of order"):
        parse_pupils((",".join(cols) + "\n").encode())


def test_not_utf8_fatal():
    with pytest.raises(CohortError, match="UTF-8"):
        parse_pupils(b"\xff\xfe\x00bad")


@pytest.mark.parametrize("as_stream", [False, True], ids=["bytes", "stream"])
def test_not_utf8_names_byte_position_in_file(as_stream):
    # the file is decoded a block at a time, but a position is counted in the
    # whole file, after any BOM, as a decode of the whole file counts it
    cohort = generate_population(GeneratorConfig(n_schools=80, seed=0)).cohort
    clean = b"".join(serialize_blocks(cohort.pupil_table))
    late = _BLOCK_BYTES + 20_000
    assert len(clean) > late + 2
    cases = [(20_000, b"\xff", b""), (late, b"\xff", b""), (late, b"\xff", codecs.BOM_UTF8),
             (late, b"\xe2\x82", codecs.BOM_UTF8)]  # the last: a character cut short
    for at, bad, bom in cases:
        data = bom + clean[:at] + bad + clean[at + len(bad):]
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8-sig")
        source = io.BytesIO(data) if as_stream else data
        with pytest.raises(CohortError, match=f"UTF-8.*position {at}") as parsed:
            parse_pupils(source)
        assert str(parsed.value) == f"input is not valid UTF-8: {whole.value}"
        if as_stream:
            gc.collect()
            assert not source.closed  # the caller's stream is never wrapped


def test_wrong_field_count_is_issue():
    table, issues = parse_pupils(pupil_csv("P1,S1,40"))
    assert len(table) == 0 and "fields" in issues[0].reason


# ---------------------------------------------------------------------------
# parse_schools
# ---------------------------------------------------------------------------


def test_header_only_schools():
    table, issues = parse_schools(school_csv())
    assert len(table) == 0 and issues == []


def test_school_row_enums():
    table, issues = parse_schools(
        school_csv("S1,North East,Community,Grammar,11-18,Mixed,None,4")
    )
    assert issues == []
    (s,) = table.records()
    assert s.admissions == "Grammar"
    assert s.region == "North East"
    assert s.age_range == "11-18"


def test_row_views_follow_the_field_tables():
    assert PupilRecord._fields == PUPIL_COLUMNS
    assert SchoolRecord._fields == SCHOOL_COLUMNS


@pytest.fixture(scope="module")
def default_cohort():
    return generate_population(GeneratorConfig(n_schools=300, seed=612)).cohort


def test_row_views_are_immutable_and_hashable(midsize_population):
    cohort = midsize_population.cohort
    for row in (cohort.pupils[0], cohort.schools[0]):
        with pytest.raises(AttributeError):
            row.school_id = "S9999"
        assert {row: 1}[row] == 1
    assert cohort.pupils is cohort.pupils and type(cohort.pupils) is tuple


def _cell(f, value):
    """A stored value as its row view reads it, from the field's kind alone."""
    if f.kind is Kind.INT:
        return None if value < 0 else f.bounds[0] + value
    if f.kind is Kind.ENUM:
        return f.levels[value]
    return bool(value) if f.kind is Kind.FLAG else value


def test_row_views_hold_the_decoded_columns(default_cohort):
    for table, rows in [
        (default_cohort.pupil_table, default_cohort.pupils),
        (default_cohort.school_table, default_cohort.schools),
    ]:
        assert len(rows) == len(table)
        for f in table.fields:
            col = table[f.name]
            stored = decode_ids(col) if f.kind is Kind.ID else col.tolist()
            expected = [_cell(f, v) for v in stored]
            got = [getattr(r, f.name) for r in rows]
            assert got == expected, f.name
            assert list(map(type, got)) == list(map(type, expected)), f.name


def _python_calls(make):
    """Python frames entered while ``make()`` runs, with the collector off."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.disable()
    sys.setprofile(profile)
    try:
        make()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


# a copy of the view's owner that has not cached it yet
_UNCACHED_OWNER = {
    "pupils": dataclasses.replace,
    "pupil_scores": lambda cohort: dataclasses.replace(
        compute_measure(cohort, MeasureKind.ATTAINMENT8)
    ),
}


@pytest.mark.parametrize("view", list(_UNCACHED_OWNER))
def test_row_views_take_no_python_call_per_row(default_cohort, view):
    # each row is made by a C-level constructor: the frames entered do not
    # grow with the cohort (a dataclass __init__ per row made 11,976 frames
    # for the pupils at 40/0, and 5,975 for their scores)
    small = generate_population(GeneratorConfig(n_schools=40, seed=0)).cohort
    counts = []
    for cohort in (small, small, default_cohort):  # the first is a warm-up
        owner = _UNCACHED_OWNER[view](cohort)
        counts.append(_python_calls(lambda: getattr(owner, view)))
    assert counts[1] == counts[2] < len(small.pupil_table), counts


def test_row_views_read_a_bool_flag_as_its_codes(midsize_population):
    # a caller's Table may hold fsm as bool: its rows equal the int8 codes' rows
    table = midsize_population.cohort.pupil_table
    as_bool = table.replace(fsm=table["fsm"].astype(bool))
    assert as_bool["fsm"].dtype == bool and as_bool["fsm"].any()
    assert as_bool.records() == table.records()
    assert {type(r.fsm) for r in as_bool.records()} == {bool}


def test_row_views_read_code_minus_one_as_none(midsize_population):
    table = midsize_population.cohort.pupil_table
    ks2 = table["ks2_group"].copy()
    ks2[::3] = -1
    rows = table.replace(ks2_group=ks2).records()
    lo = FIELD["ks2_group"].bounds[0]
    for i, (row, code) in enumerate(zip(rows, ks2.tolist())):
        if i % 3:
            assert type(row.ks2_group) is int and row.ks2_group == lo + code
        else:
            assert row.ks2_group is None


@pytest.mark.parametrize("parse, make_csv", [(parse_pupils, pupil_csv), (parse_schools, school_csv)])
def test_header_only_file_has_no_row_views(parse, make_csv):
    table, issues = parse(make_csv())
    assert issues == [] and table.records() == ()


ENUM_FIELDS = [f for f in PUPIL_FIELDS + SCHOOL_FIELDS if f.kind is Kind.ENUM]


@pytest.mark.parametrize("f", ENUM_FIELDS, ids=[f.name for f in ENUM_FIELDS])
def test_unknown_level_names_every_level(f):
    if f in PUPIL_FIELDS:
        parse, make_csv, row = parse_pupils, pupil_csv, _pupil_row(1, **{f.name: "Mars"})
    else:
        cells = dict(zip(SCHOOL_COLUMNS, GOOD_SCHOOL.split(",")), **{f.name: "Mars"})
        parse, make_csv, row = parse_schools, school_csv, ",".join(cells.values())
    table, issues = parse(make_csv(row))
    assert len(table) == 0
    (issue,) = issues
    assert issue.column == f.name
    for level in f.levels:
        assert level in issue.reason


def test_school_decile_bounds():
    table, issues = parse_schools(
        school_csv("S1,London,Community,Comprehensive,11-18,Mixed,None,11")
    )
    assert len(table) == 0 and issues[0].column == "school_idaci_decile"


# ---------------------------------------------------------------------------
# validate_cohort
# ---------------------------------------------------------------------------


def test_validate_counts():
    pupils = [make_pupil("P1", "S1"), make_pupil("P2", "S1")]
    cohort = make_cohort(pupils, [make_school("S1")])
    assert cohort.n_pupils == 2 and cohort.n_schools == 1


def test_unresolvable_school_fatal():
    with pytest.raises(CohortError, match="S9") as exc:
        make_cohort([make_pupil("P1", "S9")], [make_school("S1")])
    assert exc.value.inputs == ("pupils", "schools")


def test_empty_school_dropped_with_warning():
    pupils = [make_pupil("P1", "S1")]
    schools = [make_school("S1"), make_school("S2")]
    with pytest.warns(UserWarning, match="S2"):
        cohort = make_cohort(pupils, schools)
    assert cohort.n_schools == 1


def test_duplicate_pupil_id_fatal():
    pupils = [make_pupil("P1", "S1"), make_pupil("P1", "S1")]
    with pytest.raises(CohortError, match="duplicate pupil_id.*P1") as exc:
        make_cohort(pupils, [make_school("S1")])
    assert exc.value.inputs == ("pupils",)


def test_duplicate_school_id_fatal():
    with pytest.raises(CohortError, match="duplicate school_id") as exc:
        make_cohort([make_pupil("P1", "S1")], [make_school("S1"), make_school("S1")])
    assert exc.value.inputs == ("schools",)


def test_empty_cohort_fatal():
    with pytest.raises(CohortError, match="no pupils") as exc:
        make_cohort([], [make_school("S1")])
    assert exc.value.inputs == ("pupils",)


def _message(call) -> str:
    """The text of the error call() raises, else of the last warning it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except VamkitError as exc:
            return str(exc)
    return str(caught[-1].message)


@pytest.mark.parametrize(
    "pupils, schools",
    [
        ([("Pé", "S1"), ("Pé", "S1")], ["S1"]),
        ([("P1", "S1")], ["S1", "Sé", "Sé"]),
        ([("P1", "Sé")], ["S1"]),
        ([("P1", "S1")], ["S1", "Sé"]),
    ],
    ids=["duplicate pupil", "duplicate school", "unknown school", "empty school"],
)
def test_messages_name_non_ascii_ids_as_text(pupils, schools):
    pupils = [make_pupil(p, s, attainment8_total=40 + i) for i, (p, s) in enumerate(pupils)]
    message = _message(lambda: make_cohort(pupils, [make_school(s) for s in schools]))
    assert re.search(r"\b[PS]é\b", message) and "b'" not in message, message


def test_missing_ks2_group_names_a_non_ascii_id_as_text():
    pupils = [make_pupil("P1", "S1", attainment8_total=40), make_pupil("Pé", "S1", ks2_group=None)]
    cohort = make_cohort(pupils, [make_school("S1")])
    message = _message(lambda: compute_measure(cohort, MeasureKind.PROGRESS8))
    assert "ks2_group is missing for pupils: Pé" in message, message


def test_text_at_the_edges_is_str():
    # ids are held as UTF-8 bytes and are str wherever they leave the columns
    pupils = [make_pupil(p, s, attainment8_total=30 + 7 * i)
              for i, (p, s) in enumerate([("P1", "S1"), ("Pé", "S1"), ("P3", "Sé"), ("P😀", "Sé")])]
    cohort = make_cohort(pupils, [make_school("S1"), make_school("Sé")])
    assert cohort.pupil_table["pupil_id"].dtype.kind == "S"
    assert [(p.pupil_id, p.school_id) for p in cohort.pupils] == [
        ("P1", "S1"), ("Pé", "S1"), ("P3", "Sé"), ("P😀", "Sé")
    ]
    assert [s.school_id for s in cohort.schools] == ["S1", "Sé"]
    result = compute_measure(cohort, MeasureKind.ATTAINMENT8)
    assert [s.pupil_id for s in result.pupil_scores] == ["P1", "Pé", "P3", "P😀"]
    assert result.school_columns["school_id"] == ["S1", "Sé"]
    assert all(type(s.school_id) is str for s in result.school_scores)
    with pytest.warns(UserWarning, match="absent from cohort"):
        truth = generate_population(GeneratorConfig(n_schools=3, seed=1)).true_school_effects
    assert list(truth) == ["S0001", "S0002", "S0003"]
    assert all(type(t) is str for t in truth)


@pytest.mark.parametrize(
    "ids",
    [
        np.array([], dtype=np.intp),
        np.array(["S1"]),
        np.repeat(np.arange(5), [3, 1, 4, 1, 5]),
        np.random.default_rng(0).integers(0, 9, 60),
        np.tile(["b", "a", "c"], 7),
        np.array(["S3", "S3", "S1", "S2", "S2", "S3", "S1"]),
        np.array([2.0, np.nan, np.nan, 1.0, np.nan, 2.0]),
    ],
)
def test_unique_inverse_matches_np_unique(ids):
    kept, inverse = unique_inverse(ids)
    want_kept, want_inverse = np.unique(ids, return_inverse=True)
    assert kept.dtype == want_kept.dtype and inverse.dtype == want_inverse.dtype
    assert np.array_equal(kept, want_kept, equal_nan=kept.dtype.kind == "f")
    assert np.array_equal(inverse, want_inverse)


def _unique_path(pupils, schools):
    """What validate_cohort gave by sorting every id: school_index, the
    school order, the dropped-school warning and any duplicate-id message."""
    for ids, name in ((pupils["pupil_id"], "pupil_id"), (schools["school_id"], "school_id")):
        unique, counts = np.unique(ids, return_counts=True)
        if unique.size != ids.size:
            return f"duplicate {name} values: {id_list(decode_ids(unique[counts > 1]))}"
    kept, index = np.unique(pupils["school_id"], return_inverse=True)
    empty = decode_ids(np.setdiff1d(schools["school_id"], kept))
    warned = [f"dropping {len(empty)} school(s) with no pupils: {id_list(empty)}"] if empty else []
    return index, kept, warned


@pytest.mark.parametrize("order", ["grouped", "shuffled", "interleaved", "reversed"])
@pytest.mark.parametrize("fault", [None, "empty schools", "duplicate pupil", "duplicate school"])
def test_validate_matches_sorting_every_id(midsize_population, order, fault):
    cohort = midsize_population.cohort
    pupils, schools = cohort.pupil_table, cohort.school_table
    rng = np.random.default_rng(11)
    if fault == "empty schools":
        pupils = pupils.take(np.flatnonzero(cohort.school_index % 7 != 3))
    elif fault == "duplicate pupil":
        ids = pupils["pupil_id"].copy()
        ids[[3, 40, 41, 900]] = ids[[2, 7, 900, 899]]
        pupils = pupils.replace(pupil_id=ids)
    elif fault == "duplicate school":
        schools = schools.take(np.append(np.arange(len(schools)), [4, 2]))
    index = np.arange(len(pupils))
    if order == "shuffled":
        index = rng.permutation(index)
    elif order == "interleaved":  # each pupil's rank within its school, then school
        school_of = pupils["school_id"]
        rank = index - np.searchsorted(school_of, school_of)
        index = np.lexsort((school_of, rank))
    elif order == "reversed":
        index = index[::-1]
    pupils = pupils.take(index)
    schools = schools.take(rng.permutation(len(schools)))
    want = _unique_path(pupils, schools)
    if isinstance(want, str):
        with pytest.raises(CohortError) as exc:
            validate_cohort(pupils, schools)
        assert str(exc.value) == want
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = validate_cohort(pupils, schools)
    index, kept, warned = want
    assert got.school_index.dtype == index.dtype
    assert np.array_equal(got.school_index, index)
    assert np.array_equal(got.school_table["school_id"], kept)
    assert [str(w.message) for w in caught] == warned


def test_counts_follow_replaced_tables():
    cohort = make_cohort([make_pupil("P1", "S1"), make_pupil("P2", "S1")], [make_school("S1")])
    fewer = dataclasses.replace(cohort, pupil_table=cohort.pupil_table.take([0]))
    assert (fewer.n_pupils, fewer.n_schools) == (1, 1)


# ---------------------------------------------------------------------------
# Round trip and robustness properties
# ---------------------------------------------------------------------------


def test_pupil_round_trip(midsize_population):
    data = b"".join(serialize_blocks(midsize_population.cohort.pupil_table))
    table, issues = parse_pupils(data)
    assert issues == []
    assert table.records() == midsize_population.cohort.pupils
    assert b"".join(serialize_blocks(table)) == data


def test_school_round_trip(midsize_population):
    data = b"".join(serialize_blocks(midsize_population.cohort.school_table))
    table, issues = parse_schools(data)
    assert issues == []
    assert table.records() == midsize_population.cohort.schools
    assert b"".join(serialize_blocks(table)) == data


def test_csv_bytes_round_trips_any_cell():
    # more rows than one encoded block, cells with every character CSV quotes
    rng = np.random.default_rng(3)
    chars = rng.choice(list('ab ,"\r\n'), size=(3, 20000, 4)).tolist()
    lengths = rng.integers(0, 5, size=(3, 20000)).tolist()
    columns = [["".join(c[:n]) for c, n in zip(*col)] for col in zip(chars, lengths)]
    data = csv_bytes(["x", "y,z", 'w"'], columns)
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    assert rows == [["x", "y,z", 'w"']] + [list(row) for row in zip(*columns)]


def test_csv_bytes_quotes_only_where_needed():
    assert csv_bytes(["a", "b"], [["1", "x\ry"], ["", 'q"']]) == b'a,b\n1,\n"x\ry","q"""\n'
    assert csv_bytes(["a", "b"], [[], []]) == b"a,b\n"
    with pytest.raises(ValueError):
        csv_bytes(["a", "b"], [["1"], []])


def test_every_category_spelling_parses_back():
    for f in FIELD.values():
        if f.kind is not Kind.ENUM:
            continue
        for code, level in enumerate(f.levels):
            assert f.encode(level) == code
            assert f.encode(level.upper()) == code
            assert f.encode(f"  {level.lower()} ") == code


def test_parse_never_raises_unexpectedly_on_arbitrary_bytes():
    rng = np.random.default_rng(20251114)
    for trial in range(200):
        n = int(rng.integers(0, 400))
        blob = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
        if trial % 3 == 0:
            blob = PUPIL_HEADER.encode() + b"\n" + blob
        try:
            table, issues = parse_pupils(blob)
        except CohortError:
            continue
        assert isinstance(table, Table) and isinstance(issues, list)
        for issue in issues:
            assert issue.row >= 1 and issue.reason


def test_mutated_valid_rows_give_located_issues():
    rng = np.random.default_rng(5)
    base = GOOD_PUPIL.split(",")
    rows = []
    for i in range(50):
        row = list(base)
        row[0] = f"P{i}"
        col = int(rng.integers(2, len(row)))
        row[col] = rng.choice(["?", "999", "-3", ""])
        rows.append(",".join(row))
    table, issues = parse_pupils(pupil_csv(*rows))
    assert len(table) + len(issues) == 50
    for issue in issues:
        assert 1 <= issue.row <= 50


# ---------------------------------------------------------------------------
# First failing column wins, with a fixed reason text
# ---------------------------------------------------------------------------

GOOD_SCHOOL = "S1,London,Community,Comprehensive,11-18,Mixed,None,4"

# column -> (bad cell, the reason reported for it)
PUPIL_FAULTS = {
    "pupil_id": ("", "must not be empty"),
    "school_id": ("  ", "must not be empty"),
    "attainment8_total": ("91", "must be in [0, 90], got 91"),
    "ks2_group": ("35", "must be an integer in 1..34, got '35'"),
    "month_of_birth": (
        "Smarch",
        "unknown value 'Smarch'; valid values: September, October, November, December, "
        "January, February, March, April, May, June, July, August",
    ),
    "gender": ("X", "unknown value 'X'; valid values: Male, Female"),
    "ethnicity": (
        "Martian",
        "unknown value 'Martian'; valid values: White British, White Irish, "
        "Traveller of Irish Heritage, Gypsy / Roma, Any Other White Background, "
        "Black African, Black Caribbean, Any Other Black Background, Indian, Pakistani, "
        "Bangladeshi, Any Other Asian Background, Chinese, White and Black African, "
        "White and Black Caribbean, White and Asian, Any Other Mixed Background, "
        "Any Other Ethnic Group, Information Not Yet Obtained, Refused",
    ),
    "first_language": ("Klingon", "unknown value 'Klingon'; valid values: English, Other"),
    "sen": (" maybe ", "unknown value 'maybe'; valid values: None, SEN support, Statement"),
    "fsm": ("yes", "must be 0 or 1, got 'yes'"),
    "idaci_decile": ("x", "invalid literal for int() with base 10: 'x'"),
}

SCHOOL_FAULTS = {
    "school_id": ("", "must not be empty"),
    "region": (
        "Mars",
        "unknown value 'Mars'; valid values: London, South East, South West, West Midlands, "
        "North West, North East, Yorkshire & Humber, East Midlands, East of England",
    ),
    "school_type": (
        "Castle",
        "unknown value 'Castle'; valid values: Community, Foundation, Voluntary aided, "
        "Voluntary controlled, City tech. college, Sponsored academy, Converter academy, "
        "Free, Studio, Uni. tech. college, Further ed. college",
    ),
    "admissions": (
        "Lottery",
        "unknown value 'Lottery'; valid values: Comprehensive, Grammar, Secondary modern",
    ),
    "age_range": ("3-5", "unknown value '3-5'; valid values: 11-18, 11-16, 14-18, 4-18, 4-16"),
    "school_gender": ("Any", "unknown value 'Any'; valid values: Mixed, Boys, Girls"),
    "religion": (
        "Jedi",
        "unknown value 'Jedi'; valid values: None, Church of England, Roman catholic, "
        "Other Christian faith, Jewish, Muslim, Sikh",
    ),
    "school_idaci_decile": ("0", "must be an integer in 1..10, got '0'"),
}


def _broken_from(good, columns, faults, column):
    """The good row with ``column`` and every later column made bad."""
    cells = good.split(",")
    for j in range(columns.index(column), len(columns)):
        cells[j] = faults[columns[j]][0]
    return ",".join(cells)


@pytest.mark.parametrize(
    "parse, make_csv, good, columns, faults, column",
    [
        (parse_pupils, pupil_csv, GOOD_PUPIL, PUPIL_COLUMNS, PUPIL_FAULTS, c)
        for c in PUPIL_COLUMNS
    ]
    + [
        (parse_schools, school_csv, GOOD_SCHOOL, SCHOOL_COLUMNS, SCHOOL_FAULTS, c)
        for c in SCHOOL_COLUMNS
    ],
    ids=[f"pupils-{c}" for c in PUPIL_COLUMNS] + [f"schools-{c}" for c in SCHOOL_COLUMNS],
)
def test_first_failing_column_is_reported_once(parse, make_csv, good, columns, faults, column):
    # a blank line still counts in the row numbering
    broken = _broken_from(good, columns, faults, column)
    table, issues = parse(make_csv(good, "", broken, good.replace("1,", "2,", 1)))
    assert len(table) == 2
    assert [(i.row, i.column, i.reason) for i in issues] == [(3, column, faults[column][1])]


# ---------------------------------------------------------------------------
# Block boundaries: a file is read and encoded a block of rows at a time
# ---------------------------------------------------------------------------


def _pupil_row(row_no, **cells):
    """GOOD_PUPIL with pupil_id P<row_no> and the given columns replaced."""
    values = dict(zip(PUPIL_COLUMNS, GOOD_PUPIL.split(",")), pupil_id=f"P{row_no}", **cells)
    return ",".join(values[c] for c in PUPIL_COLUMNS)


def test_block_boundaries_keep_rows_and_issues():
    B = _BLOCK_ROWS
    lines = {r: _pupil_row(r) for r in range(1, 2 * B + 6)}
    bad = {  # row -> column made bad
        B + 1: "gender",  # last row of block 1
        B + 3: "ks2_group",  # first row of block 2
        2 * B + 2: "attainment8_total",  # last row of block 2
        2 * B + 3: "sen",  # first row of block 3
    }
    for r, column in bad.items():
        lines[r] = _pupil_row(r, **{column: PUPIL_FAULTS[column][0]})
    lines[3] = _pupil_row(3) + ",extra"  # wrong width: the first block ends a row later
    lines[B + 2] = ""  # blank, between blocks 1 and 2
    # quoted ids holding a newline: one row over two lines ends block 2, one is kept
    lines[2 * B + 2] = lines[2 * B + 2].replace(f"P{2 * B + 2}", '"P\nlast of block 2"', 1)
    lines[2 * B + 4] = lines[2 * B + 4].replace(f"P{2 * B + 4}", '"P\nkept"', 1)
    data = pupil_csv(*(lines[r] for r in sorted(lines)))

    issues = []
    blocks = [row_nos for _, row_nos in read_blocks(data, PUPIL_COLUMNS, "pupil CSV", issues)]
    assert [(b[0], b[-1], len(b)) for b in blocks] == [
        (1, B + 1, B), (B + 3, 2 * B + 2, B), (2 * B + 3, 2 * B + 5, 3)
    ]

    table, issues = parse_pupils(data)
    skipped = {3, B + 2, *bad}
    expected_ids = [f"P{r}" for r in range(1, 2 * B + 6) if r not in skipped]
    expected_ids[expected_ids.index(f"P{2 * B + 4}")] = "P\nkept"
    assert decode_ids(table["pupil_id"]) == expected_ids
    wide = (3, "(row)", "expected 11 fields, got 12")
    assert [(i.row, i.column, i.reason) for i in issues] == [wide] + [
        (r, column, PUPIL_FAULTS[column][1]) for r, column in bad.items()
    ]


def _column_types(table):
    """Each column's dtype; an id column's width follows the longest cell read."""
    return {name: "bytes" if c.dtype.kind == "S" else c.dtype for name, c in table.columns.items()}


def test_all_bad_block_and_header_only_give_typed_empty_columns():
    types = _column_types(parse_pupils(pupil_csv(GOOD_PUPIL))[0])
    assert types["pupil_id"] == "bytes" and types["attainment8_total"] == np.float64
    assert types["gender"] == np.int8

    table, issues = parse_pupils(pupil_csv())
    assert len(table) == 0 and issues == [] and _column_types(table) == types
    all_bad = [_pupil_row(r, gender="X") for r in range(1, _BLOCK_ROWS + 3)]  # two blocks
    table, issues = parse_pupils(pupil_csv(*all_bad))
    assert len(table) == 0 and len(issues) == _BLOCK_ROWS + 2
    assert _column_types(table) == types
    # a block of bad rows before a good one
    table, issues = parse_pupils(pupil_csv(*all_bad[:_BLOCK_ROWS], GOOD_PUPIL))
    assert decode_ids(table["pupil_id"]) == ["P1"] and len(issues) == _BLOCK_ROWS
    assert _column_types(table) == types
