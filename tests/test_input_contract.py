"""Property test of the CLI input contract.

Random truncations and byte or cell mutations of a small valid cohort and of
one of its score files are fed to ``fit``, ``breakdown``, ``validate`` and
``compare`` through ``run()``. Whatever the input, no exception escapes and
the exit code is 0 or 1; a failing ``compare`` prints one stderr line naming
the mutated file, and a failing ``validate`` names it too; and exit 0 means
every numeric output cell is finite.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vamkit.cli import run

# output columns that hold text; every other cell is blank or a number
TEXT_COLUMNS = {"school_id", "measure", "category", "label"}

CELLS = ["", " ", "nan", "inf", "-inf", "1e309", "-1", "0", "3.5", "x", "S000", "Eligible",
         "a8", "significantly_above", '"', ",", "\n", "\ufeff"]

CONTRACT = settings(
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    assert run(["simulate", "--seed", "3", "--schools", "6", "--out", str(root / "sim")]) == 0
    assert run([
        "fit", "--pupils", str(root / "sim" / "pupils.csv"),
        "--schools", str(root / "sim" / "schools.csv"),
        "--measures", "a8,p8", "--out", str(root / "fit"),
    ]) == 0
    return {
        "pupils.csv": root / "sim" / "pupils.csv",
        "schools.csv": root / "sim" / "schools.csv",
        "school_scores_a8.csv": root / "fit" / "school_scores_a8.csv",
        "school_scores_p8.csv": root / "fit" / "school_scores_p8.csv",
    }


@st.composite
def mutations(draw, data: bytes) -> bytes:
    kind = draw(st.sampled_from(["truncate", "byte", "cell"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "byte":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 2))
    cells = lines[i].split(b",")
    cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS)).encode()
    lines[i] = b",".join(cells)
    return b"\n".join(lines)


def assert_outputs_finite(out: Path) -> None:
    for path in out.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        for row in rows:
            for column, cell in row.items():
                if column not in TEXT_COLUMNS and cell != "":
                    assert math.isfinite(float(cell)), (path.name, column, cell)
    for path in out.glob("comparison.json"):
        # json writes a non-finite float as NaN, Infinity or -Infinity
        json.loads(path.read_text(), parse_constant=reject_non_finite)


def reject_non_finite(constant: str):
    raise AssertionError(f"non-finite number {constant} in comparison.json")


def run_contract(argv, out: Path, capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 0 and out.exists():
        assert_outputs_finite(out)
    return code, err


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", ["pupils.csv", "schools.csv"])
@CONTRACT
@given(data=st.data())
def test_mutated_cohort_file(inputs, capsys, name, data):
    mutated = data.draw(mutations(inputs[name].read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / name).write_bytes(mutated)
        files = {n: str(tmp / name if n == name else inputs[n]) for n in ("pupils.csv", "schools.csv")}
        cohort = ["--pupils", files["pupils.csv"], "--schools", files["schools.csv"]]
        run_contract(["fit", *cohort, "--out", str(tmp / "fit")], tmp / "fit", capsys)
        by = data.draw(st.sampled_from(["fsm", "ethnicity", "region"]))
        out = tmp / "breakdown"
        run_contract(["breakdown", *cohort, "--by", by, "--out", str(out)], out, capsys)
        code, err = run_contract(["validate", *cohort], tmp / "none", capsys)
        if code == 1:
            assert name in err, err


@pytest.mark.filterwarnings("ignore::UserWarning")
@CONTRACT
@given(data=st.data())
def test_mutated_score_file(inputs, capsys, data):
    mutated = data.draw(mutations(inputs["school_scores_a8.csv"].read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "school_scores_a8.csv"
        path.write_bytes(mutated)
        out = Path(tmp) / "compare"
        argv = ["compare", "--scores", str(path), "--scores", str(inputs["school_scores_p8.csv"]),
                "--out", str(out)]
        code, err = run_contract(argv, out, capsys)
        if code == 1:
            assert len(err.strip().splitlines()) == 1, err
            assert str(path) in err
