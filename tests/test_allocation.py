"""Peak allocations of the fitting path and the generator stay far below one N x k design,
and a CSV parse stays within a few times the file's size, even when one id is long.

A categorical design is fitted from its code columns, so neither fitting
a measure with its clustered covariance nor generating a cohort's outcome
should allocate an N x k float64 array (about 28 MB on the default
cohort), and a measure's result keeps one length-N array, its residuals.
A breakdown gathers each category's scores through a row index, so it
holds no sorted copy of the scores it is handed. A parse encodes a block
of rows at a time, so it never holds a Python str per cell of the file,
and the CLI streams the file once, so it
never holds the file's bytes either, even when a late quote switches the
read to the csv route. Ids are fixed-width UTF-8 bytes, so one
long id must not set the width of its whole column.
tracemalloc sees numpy's array buffers.
"""

import csv
import tracemalloc
import warnings

import numpy as np
import pytest

from vamkit import cohort, csvio
from vamkit.analysis import breakdown
from vamkit.categories import PUPIL_CHARACTERISTICS, SCHOOL_CHARACTERISTICS, MeasureKind
from vamkit.cli import _parse_input
from vamkit.cohort import PUPIL_COLUMNS, parse_pupils, parse_schools, serialize_blocks
from vamkit.design import design_labels
from vamkit.measures import compute_measure
from vamkit.ols import cluster_robust_cov
from vamkit.synthgen import GeneratorConfig, generate_population

AP8 = MeasureKind.ADJUSTED_PROGRESS8


def traced_peak(call):
    """call()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def fit_ap8(cohort):
    result = compute_measure(cohort, AP8)
    return cluster_robust_cov(result.fit, result.design, cohort.school_index)


def test_fit_and_generator_allocate_no_design_matrix():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # a warm-up call keeps one-time costs out of the traced peak
        generate_population(GeneratorConfig(n_schools=2, seed=1))
        pop, gen_peak = traced_peak(lambda: generate_population(GeneratorConfig(seed=612)))
        _, fit_peak = traced_peak(lambda: fit_ap8(pop.cohort))

    design_mb = pop.cohort.n_pupils * len(design_labels(AP8.model_spec)) * 8 / 1e6
    # The fit holds a few length-N vectors (residuals, the pupil SD's
    # working buffer, bin keys): a quarter of the design is ample. The
    # generator also holds the cohort's own columns, about twenty length-N
    # arrays: half the design.
    assert fit_peak / 1e6 < design_mb / 4, f"fit peak {fit_peak / 1e6:.1f} MB, design {design_mb:.1f} MB"
    assert gen_peak / 1e6 < design_mb / 2, f"generator peak {gen_peak / 1e6:.1f} MB, design {design_mb:.1f} MB"


@pytest.fixture(scope="module")
def default_population():
    return generate_population(GeneratorConfig(seed=612))


@pytest.fixture(scope="module")
def default_pupils(default_population):
    """The default cohort's pupils.csv bytes and its pupil count."""
    pupils = default_population.cohort.pupil_table
    return b"".join(serialize_blocks(pupils)), len(pupils)


def test_ids_hold_one_byte_per_ascii_character(default_population, default_pupils):
    # "P" and six digits, "S" and four: 7 and 5 bytes an id, generated or parsed
    cohort = default_population.cohort
    pupils = parse_pupils(default_pupils[0])[0]
    schools = parse_schools(b"".join(serialize_blocks(cohort.school_table)))[0]
    for table in (cohort.pupil_table, cohort.school_table, pupils, schools):
        for name, chars in (("pupil_id", 7), ("school_id", 5)):
            if name in table.columns:
                col = table[name]
                assert col.dtype == np.dtype(f"S{chars}"), name
                assert col.nbytes == len(table) * chars, name


def test_a_measure_holds_its_residuals_and_one_temporary(default_population):
    # A result holds the residuals and makes its scores on first read; the
    # pupil SD is worked in one buffer that the school scores then reuse.
    # Traced per measure at 300/612, in pupil-length float64 vectors: peak
    # 2.34-2.75 and held 1.28-1.43, against 3.13-3.29 and 2.28-2.43 when a
    # result also held its scores and the SD took a copy of them.
    cohort = default_population.cohort
    vector = cohort.n_pupils * 8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind in MeasureKind:  # keeps the cohort's shared level counts out
            compute_measure(cohort, kind)
        for kind in MeasureKind:
            tracemalloc.start()
            try:
                result = compute_measure(cohort, kind)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak / vector < 2.9, f"{kind.value}: peak {peak / vector:.2f} vectors"
            assert held / vector < 1.5, f"{kind.value}: held {held / vector:.2f} vectors"
            del result


def test_a_breakdown_holds_no_copy_of_the_scores(default_population):
    # Each category's pupils are one row index, and the measures' category
    # scores are gathered through it one at a time. Traced per
    # characteristic at 300/612, in pupil-length float64 vectors, with the
    # four score arrays made before tracing: peak 1.25-2.24, against
    # 6.15-7.27 when a stable sort's order and four sorted copies of the
    # scores were held together.
    cohort = default_population.cohort
    vector = cohort.n_pupils * 8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scores = {kind: compute_measure(cohort, kind).scores for kind in MeasureKind}
    breakdown(cohort, scores, "ethnicity")  # warm-up
    for characteristic in PUPIL_CHARACTERISTICS + SCHOOL_CHARACTERISTICS:
        _, peak = traced_peak(lambda: breakdown(cohort, scores, characteristic))
        assert peak / vector < 3, f"{characteristic}: peak {peak / vector:.2f} vectors"


def test_level_counts_hold_no_pupil_length_array(default_population):
    # The cohort keeps its level cross-tab for the designs to share; a pupil
    # length array kept with it would stay as long as the cohort does.
    cohort = default_population.cohort
    for kind in MeasureKind:
        compute_measure(cohort, kind)
    arrays, seen, stack = [], set(), [cohort._level_counts]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += obj
        elif hasattr(obj, "__dict__"):
            stack += vars(obj).values()
    assert arrays, "no level counts were stored"
    assert max(a.size for a in arrays) < cohort.n_pupils


def test_parse_allocates_a_few_times_the_file(default_pupils):
    data, n_pupils = default_pupils
    parse_pupils(data[: data.index(b"\n", 1000) + 1])  # warm-up
    (table, issues), peak = traced_peak(lambda: parse_pupils(data))
    assert len(table) == n_pupils and issues == []
    # the columns, one block of rows and the UTF-8 check's decoded copy of
    # the file; holding a str per cell of the file took eleven times its size
    assert peak < 5 * len(data), f"parse peak {peak / 1e6:.1f} MB, file {len(data) / 1e6:.2f} MB"


def test_cli_reads_a_cohort_file_as_a_stream(default_pupils, tmp_path):
    data, n_pupils = default_pupils
    assert len(data) > 4 * csvio._BLOCK_BYTES
    path, warm = tmp_path / "pupils.csv", tmp_path / "warm.csv"
    path.write_bytes(data)
    warm.write_bytes(data[: data.index(b"\n", 1000) + 1])
    _parse_input(warm, {}, parse_pupils)  # warm-up
    (table, issues), peak = traced_peak(lambda: _parse_input(path, {}, parse_pupils))
    assert len(table) == n_pupils and issues == []
    columns = sum(col.nbytes for col in table.columns.values())
    # the columns and one block's bytes and arrays: 3.6 MB here, for 1.3 MB
    # of columns from a 3.6 MB file; reading the whole file first, then
    # joining the columns from per-block chunks, took 11.9 MB
    assert peak < len(data) + columns, (
        f"read peak {peak / 1e6:.2f} MB, file {len(data) / 1e6:.2f} MB, "
        f"columns {columns / 1e6:.2f} MB"
    )


def test_a_late_quote_is_read_in_the_same_pass(default_pupils, tmp_path):
    # the last pupil_id quoted: the byte route keeps what it has cut and the
    # csv route reads on from that line, so the file is not read again
    data, n_pupils = default_pupils
    head, last = data[:-1].rsplit(b"\n", 1)
    quoted = head + b'\n"' + last.replace(b",", b'",', 1) + b"\n"
    assert quoted.index(b'"') > len(quoted) - csvio._BLOCK_BYTES // 2
    path, warm = tmp_path / "pupils.csv", tmp_path / "warm.csv"
    path.write_bytes(quoted)
    warm.write_bytes(quoted[: quoted.index(b"\n", 1000) + 1] + b'"P",' + last.split(b",", 1)[1] + b"\n")
    _parse_input(warm, {}, parse_pupils)  # warm-up, on both routes
    (table, issues), peak = traced_peak(lambda: _parse_input(path, {}, parse_pupils))
    assert len(table) == n_pupils and issues == []
    columns = sum(col.nbytes for col in table.columns.values())
    # reading the file again on the csv route after the quote took 16.0 MB
    # here, for 1.3 MB of columns from a 3.6 MB file
    assert peak < len(quoted) + columns, (
        f"read peak {peak / 1e6:.2f} MB, file {len(quoted) / 1e6:.2f} MB, "
        f"columns {columns / 1e6:.2f} MB"
    )


def long_id_file(long_id):
    """32,768 pupil rows with 7-character ids, the first id replaced by ``long_id``."""
    row = ",S001,50,20,September,Male,White British,English,None,0,5"
    rows = [long_id + row] + [f"P{i:06d}{row}" for i in range(2, 32769)]
    return ("\n".join([",".join(PUPIL_COLUMNS), *rows]) + "\n").encode()


@pytest.mark.parametrize(
    "long_id, length",
    [("P" * 200, 200), ("P" * 300, 300), ('"' + "P" * 2000 + '"', 2000)],
    ids=["byte", "byte-str-column", "csv"],
)
def test_one_long_id_is_one_issue_and_widens_nothing(monkeypatch, long_id, length):
    # 200 characters are gathered by numpy; 300 are over the gather's cap,
    # so only the id column of the block that holds them is cut into str
    data = long_id_file(long_id)
    assert len(data) > 2 * csvio._BLOCK_BYTES
    if not long_id.startswith('"'):  # a quote-free file: no csv module
        assert cohort._tokenizable(data)
        monkeypatch.setattr(csv, "reader", None)
    parse_pupils(data[: data.index(b"\n", 1000) + 1])  # warm-up
    (table, issues), peak = traced_peak(lambda: parse_pupils(data))
    reason = f"must be at most 64 characters, got {length}"
    assert [(i.row, i.column, i.reason) for i in issues] == [(1, "pupil_id", reason)]
    assert len(table) == 32767 and table["pupil_id"].dtype == np.dtype("S7")
    # a clean file of this size peaks at about 4 (byte route) and 7 (csv
    # route) times its size; an id column as wide as the long id took 17
    # and 155 times
    assert peak < 10 * len(data), f"parse peak {peak / 1e6:.1f} MB, file {len(data) / 1e6:.2f} MB"
