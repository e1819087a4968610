import csv
import json
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vamkit
from vamkit.cli import run
from vamkit.cohort import serialize_pupils, serialize_schools

from conftest import random_cohort


def run_ok(argv):
    assert run(argv) == 0


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(row for row in fh if not row.startswith("#")))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    run_ok(["simulate", "--seed", "42", "--schools", "40", "--out", str(out)])
    return out


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("fit")
    run_ok([
        "fit",
        "--pupils", str(sim_dir / "pupils.csv"),
        "--schools", str(sim_dir / "schools.csv"),
        "--measures", "all",
        "--out", str(out),
    ])
    return out


# ---------------------------------------------------------------------------
# simulate / validate
# ---------------------------------------------------------------------------


def test_simulate_outputs_and_manifest(sim_dir):
    names = {p.name for p in sim_dir.iterdir()}
    assert names == {"pupils.csv", "schools.csv", "truth.csv", "manifest.json"}
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["seed"] == 42
    assert sorted(manifest["outputs"]) == ["pupils.csv", "schools.csv", "truth.csv"]
    assert "wall_time_s" in manifest


def test_validate_clean_cohort(sim_dir, capsys):
    run_ok([
        "validate",
        "--pupils", str(sim_dir / "pupils.csv"),
        "--schools", str(sim_dir / "schools.csv"),
    ])
    out = capsys.readouterr().out
    assert "OK:" in out and "40 schools" in out


def test_validate_rejects_bad_rows(tmp_path, sim_dir, capsys):
    bad = tmp_path / "pupils.csv"
    lines = (sim_dir / "pupils.csv").read_text().splitlines()
    broken = lines[1].split(",")
    broken[6] = "Martian"
    lines.insert(1, ",".join(broken).replace(broken[0], "PX"))
    bad.write_text("\n".join(lines) + "\n")
    code = run([
        "validate", "--pupils", str(bad), "--schools", str(sim_dir / "schools.csv"),
    ])
    assert code == 1
    assert "ethnicity" in capsys.readouterr().err


def test_config_file_overrides(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n_schools": 8,
        "school_size_range": [10, 15],
        "noise_sd": 5.0,
        "seed": 7,
    }))
    out = tmp_path / "out"
    run_ok(["simulate", "--config", str(config), "--out", str(out)])
    rows = read_csv(out / "schools.csv")
    assert len(rows) == 8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert str(config) in manifest["inputs"]


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_outputs(fit_dir):
    names = {p.name for p in fit_dir.iterdir()}
    expected = {"manifest.json", "summary.csv"}
    for code in ("a8", "aa8", "p8", "ap8"):
        expected |= {f"coefficients_{code}.csv", f"school_scores_{code}.csv"}
    assert names == expected


def test_fit_summary_rows(fit_dir):
    rows = read_csv(fit_dir / "summary.csv")
    assert [r["measure"] for r in rows] == ["a8", "aa8", "p8", "ap8"]
    by_measure = {r["measure"]: r for r in rows}
    assert float(by_measure["a8"]["adjusted_r_squared"]) == 0.0
    assert float(by_measure["ap8"]["adjusted_r_squared"]) > float(
        by_measure["aa8"]["adjusted_r_squared"]
    )


def test_fit_coefficient_table_shape(fit_dir):
    rows = read_csv(fit_dir / "coefficients_ap8.csv")
    assert len(rows) == 78
    assert rows[0]["label"] == "constant"
    assert rows[-1]["label"] == "idaci_decile_10"
    filled = [r for r in rows if r["estimate"]]
    assert len(filled) >= 70
    assert all(r["significant"] in ("0", "1") for r in rows)


def test_fit_school_scores_schema(fit_dir):
    rows = read_csv(fit_dir / "school_scores_a8.csv")
    assert len(rows) == 40
    assert set(rows[0]) == {
        "school_id", "measure", "score", "n_pupils", "ci_low", "ci_high", "category",
    }
    for r in rows[:5]:
        assert float(r["ci_low"]) < float(r["ci_high"])


def test_manifest_digests_match_inputs(sim_dir, fit_dir):
    manifest = json.loads((fit_dir / "manifest.json").read_text())
    for path, digest in manifest["inputs"].items():
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_precision_flag(tmp_path, sim_dir):
    out = tmp_path / "fit2dp"
    run_ok([
        "fit",
        "--pupils", str(sim_dir / "pupils.csv"),
        "--schools", str(sim_dir / "schools.csv"),
        "--measures", "a8",
        "--precision", "2",
        "--out", str(out),
    ])
    rows = read_csv(out / "school_scores_a8.csv")
    for r in rows:
        whole, frac = r["score"].lstrip("-").split(".")
        assert len(frac) == 2


# ---------------------------------------------------------------------------
# compare / breakdown
# ---------------------------------------------------------------------------


def test_compare_measure_with_itself(tmp_path, fit_dir):
    out = tmp_path / "cmp"
    run_ok([
        "compare",
        "--scores", str(fit_dir / "school_scores_a8.csv"),
        "--scores", str(fit_dir / "school_scores_a8.csv"),
        "--thresholds", "1,5",
        "--out", str(out),
    ])
    report = json.loads((out / "comparison.json").read_text())
    assert report["pair"] == ["a8", "a8"]
    assert report["pearson_r"] == pytest.approx(1.0)
    assert all(m["count"] == 0 for m in report["movements"])
    assert report["max_rank_change"] == 0


def test_compare_composes_with_fit(tmp_path, fit_dir):
    out = tmp_path / "cmp"
    run_ok([
        "compare",
        "--scores", str(fit_dir / "school_scores_a8.csv"),
        "--scores", str(fit_dir / "school_scores_ap8.csv"),
        "--thresholds", "5,10",
        "--out", str(out),
    ])
    report = json.loads((out / "comparison.json").read_text())
    assert report["pair"] == ["a8", "ap8"]
    assert -1.0 < report["pearson_r"] < 1.0
    assert report["n_schools"] == 40
    q = report["quadrants"]
    assert q["nw"] + q["ne"] + q["sw"] + q["se"] == 40
    counts = {m["threshold"]: m["count"] for m in report["movements"]}
    assert counts[5] >= counts[10]


def test_ids_that_need_quoting_round_trip(tmp_path):
    renamed = {"S000": "S1,North", "S001": 'S2"x'}
    cohort = random_cohort(7)

    def rename(table):
        ids = [renamed.get(sid, sid) for sid in table["school_id"].tolist()]
        return table.replace(school_id=np.array(ids))

    pupils, schools = rename(cohort.pupil_table), rename(cohort.school_table)
    (tmp_path / "pupils.csv").write_bytes(serialize_pupils(pupils))
    (tmp_path / "schools.csv").write_bytes(serialize_schools(schools))
    fit = tmp_path / "fit"
    run_ok([
        "fit",
        "--pupils", str(tmp_path / "pupils.csv"),
        "--schools", str(tmp_path / "schools.csv"),
        "--measures", "a8,p8",
        "--out", str(fit),
    ])
    run_ok([
        "compare",
        "--scores", str(fit / "school_scores_a8.csv"),
        "--scores", str(fit / "school_scores_p8.csv"),
        "--out", str(tmp_path / "cmp"),
    ])
    for code in ("a8", "p8"):
        with open(fit / f"school_scores_{code}.csv", newline="") as fh:
            ids = [row[0] for row in csv.reader(fh)][1:]
        assert sorted(ids) == sorted(schools["school_id"].tolist())


def test_breakdown_adjusted_characteristic_zero_means(tmp_path, sim_dir):
    out = tmp_path / "bd"
    run_ok([
        "breakdown",
        "--pupils", str(sim_dir / "pupils.csv"),
        "--schools", str(sim_dir / "schools.csv"),
        "--measures", "aa8",
        "--by", "fsm",
        "--out", str(out),
    ])
    rows = read_csv(out / "breakdown_fsm.csv")
    assert len(rows) == 2
    for r in rows:
        assert abs(float(r["mean_aa8"])) <= 1e-9
        assert r["significant_aa8"] == "0"


def test_breakdown_school_characteristic(tmp_path, sim_dir):
    out = tmp_path / "bd2"
    run_ok([
        "breakdown",
        "--pupils", str(sim_dir / "pupils.csv"),
        "--schools", str(sim_dir / "schools.csv"),
        "--measures", "a8,ap8",
        "--by", "school_idaci_decile",
        "--out", str(out),
    ])
    rows = read_csv(out / "breakdown_school_idaci_decile.csv")
    filled = [r for r in rows if int(r["n_pupils"]) > 0]
    means = [float(r["mean_a8"]) for r in filled]
    assert means == sorted(means, reverse=True)


# ---------------------------------------------------------------------------
# exit codes and errors
# ---------------------------------------------------------------------------


def test_unknown_flag_is_usage_error(capsys):
    assert run(["fit", "--bogus", "x"]) == 2
    capsys.readouterr()


def test_unknown_measure_is_usage_error(capsys):
    assert run(["fit", "--pupils", "p", "--schools", "s", "--measures", "zz", "--out", "o"]) == 2
    capsys.readouterr()


def test_missing_input_file_is_failure(tmp_path, capsys):
    code = run([
        "fit",
        "--pupils", str(tmp_path / "nope.csv"),
        "--schools", str(tmp_path / "nope2.csv"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert capsys.readouterr().err


def test_mismatched_compare_is_failure(tmp_path, fit_dir, sim_dir, capsys):
    code = run([
        "compare",
        "--scores", str(fit_dir / "school_scores_a8.csv"),
        "--scores", str(sim_dir / "pupils.csv"),
        "--out", str(tmp_path / "cmp"),
    ])
    assert code == 1
    assert "school_scores" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_point_runs(sim_dir):
    src = str(Path(vamkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "vamkit.cli", "validate",
            "--pupils", str(sim_dir / "pupils.csv"),
            "--schools", str(sim_dir / "schools.csv"),
        ],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("OK: ") and "40 schools" in proc.stdout


def test_cli_import_loads_no_scipy():
    # fit, compare and breakdown need only numpy; scipy would add about
    # half a second to every CLI start
    src = str(Path(vamkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, vamkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _edited_scores(tmp_path, fit_dir, row, column, value):
    rows = read_csv(fit_dir / "school_scores_a8.csv")
    rows[row - 1][column] = value
    path = tmp_path / "edited_scores.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    argv = ["compare", "--scores", str(fit_dir / "school_scores_a8.csv"), "--scores", str(path)]
    return argv, path


def _rewritten_scores(tmp_path, fit_dir, header, row):
    """school_scores_a8.csv with its header and every data row rewritten.

    ``row(row_no, line)`` rewrites the data row numbered ``row_no`` from 1.
    """
    lines = (fit_dir / "school_scores_a8.csv").read_text().splitlines()
    rows = [row(i, line) for i, line in enumerate(lines[1:], start=1)]
    path = tmp_path / "rewritten_scores.csv"
    path.write_text("\n".join([header(lines[0])] + rows) + "\n")
    argv = ["compare", "--scores", str(fit_dir / "school_scores_a8.csv"), "--scores", str(path)]
    return argv, path


def _bad_cell_before_wide_row(row_no, line):
    if row_no == 2:
        return line.replace(",a8,", ",zz,")
    return line + ",x" if row_no == 3 else line


def _edited_cohort(tmp_path, sim_dir, command, name, edit):
    """``command`` on the simulated cohort with file ``name`` passed through ``edit``."""
    path = tmp_path / name
    path.write_bytes(edit((sim_dir / name).read_bytes()))
    files = {n: str(path if n == name else sim_dir / n) for n in ("pupils.csv", "schools.csv")}
    argv = [command, "--pupils", files["pupils.csv"], "--schools", files["schools.csv"]]
    if command == "breakdown":
        argv += ["--by", "fsm"]
    return argv, path


def _not_utf8(data):
    return data[:500] + b"\xff" + data[500:]


def _first_row_repeated(data):
    return data + data.split(b"\n", 2)[1] + b"\n"


def _header_only(data):
    return data.split(b"\n", 1)[0] + b"\n"


def _first_pupil_in_s9999(data):
    lines = data.split(b"\n")
    cells = lines[1].split(b",")
    cells[1] = b"S9999"
    lines[1] = b",".join(cells)
    return b"\n".join(lines)


def _config(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return ["simulate", "--config", str(path)], path


@pytest.mark.parametrize(
    "make, fragments",
    [
        (lambda t, f, s: _edited_scores(t, f, 3, "score", "abc"), ["row 3", "column score"]),
        (lambda t, f, s: _edited_scores(t, f, 2, "measure", "zz"), ["row 2", "column measure", "zz"]),
        (lambda t, f, s: _edited_scores(t, f, 1, "score", "nan"), ["row 1", "column score", "finite"]),
        (
            lambda t, f, s: _rewritten_scores(t, f, lambda h: h, lambda i, r: r + ",x"),
            ["row 1", "expected 7 fields, got 8"],
        ),
        (
            lambda t, f, s: _rewritten_scores(t, f, lambda h: h, _bad_cell_before_wide_row),
            ["row 2", "column measure", "zz"],
        ),
        (
            lambda t, f, s: _rewritten_scores(
                t, f, lambda h: h + ",score", lambda i, r: r + ",9.5"
            ),
            ["duplicate columns: score"],
        ),
        (lambda t, f, s: _edited_cohort(t, s, "fit", "pupils.csv", _not_utf8), ["not valid UTF-8"]),
        (
            lambda t, f, s: _edited_cohort(t, s, "validate", "schools.csv", _not_utf8),
            ["not valid UTF-8"],
        ),
        (
            lambda t, f, s: _edited_cohort(
                t, s, "breakdown", "pupils.csv", lambda d: d.replace(b"gender", b"sex", 1)
            ),
            ["missing columns: gender", "unexpected columns: sex"],
        ),
        (
            lambda t, f, s: _edited_cohort(
                t, s, "fit", "schools.csv", lambda d: d.replace(b"region", b"school_type", 1)
            ),
            ["missing columns: region", "duplicate columns: school_type"],
        ),
        (
            lambda t, f, s: _edited_cohort(t, s, "fit", "pupils.csv", _first_row_repeated),
            ["duplicate pupil_id values: P"],
        ),
        (
            lambda t, f, s: _edited_cohort(t, s, "breakdown", "schools.csv", _first_row_repeated),
            ["duplicate school_id values: S"],
        ),
        (
            lambda t, f, s: _edited_cohort(t, s, "validate", "pupils.csv", _first_pupil_in_s9999),
            ["pupils.csv, ", "schools.csv: pupils reference unknown school_id values: S9999"],
        ),
        (lambda t, f, s: _edited_cohort(t, s, "fit", "pupils.csv", _header_only), ["no pupils"]),
        (lambda t, f, s: _config(t, '{"n_schools": 8, "seed": '), ["JSON"]),
        (lambda t, f, s: _config(t, '{"n_schools": "x"}'), ["n_schools", "'x'"]),
        (lambda t, f, s: _config(t, '{"coefficient_set": {"constant": NaN}}'), ["constant"]),
    ],
    ids=[
        "non-numeric-score", "unknown-measure", "nan-score", "extra-score-cell",
        "first-bad-score-row", "duplicate-score-column", "pupils-not-utf8", "schools-not-utf8", "pupils-bad-header",
        "schools-bad-header", "duplicate-pupil-row", "duplicate-school-row", "unknown-school-id",
        "no-pupils", "truncated-json", "string-n_schools", "nan-coefficient",
    ],
)
def test_bad_input_is_one_line_error(tmp_path, fit_dir, sim_dir, capsys, make, fragments):
    argv, path = make(tmp_path, fit_dir, sim_dir)
    if argv[0] != "validate":
        argv = argv + ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert str(path) in err
    for fragment in fragments:
        assert fragment in err


def test_warnings_are_one_line_each(tmp_path, capsys):
    capsys.readouterr()
    run_ok(["simulate", "--schools", "3", "--seed", "0", "--out", str(tmp_path / "sim")])
    err = capsys.readouterr().err.splitlines()
    assert err  # three schools leave category levels absent
    for line in err:
        assert line.startswith("warning: ") and ".py:" not in line, line


def test_skipped_rows_are_capped_on_stderr(tmp_path, sim_dir, capsys):
    lines = (sim_dir / "pupils.csv").read_text().splitlines()
    gender, sen = lines[0].split(",").index("gender"), lines[0].split(",").index("sen")
    for i in range(1, 51):
        cells = lines[i].split(",")
        cells[gender if i % 2 else sen] = "?"
        lines[i] = ",".join(cells)
    bad = tmp_path / "pupils.csv"
    bad.write_text("\n".join(lines) + "\n")
    schools = str(sim_dir / "schools.csv")

    capsys.readouterr()
    run_ok(["fit", "--pupils", str(bad), "--schools", schools, "--measures", "a8",
            "--out", str(tmp_path / "fit")])
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if "skipped row " in line]) == 20
    assert [line for line in err if "by column" in line] == [
        "pupils.csv: skipped 50 row(s); by column: gender 25, sen 25"
    ]

    assert run(["validate", "--pupils", str(bad), "--schools", schools]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("pupils.csv: row ")]) == 50
