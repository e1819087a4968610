import csv
import json
import hashlib
import itertools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import vamkit
from vamkit.categories import PUPIL_CHARACTERISTICS, SCHOOL_CHARACTERISTICS, MeasureKind
from vamkit.cli import run
from vamkit.cohort import (
    decode_ids, parse_pupils, parse_schools, serialize_blocks, validate_cohort,
)
from vamkit.compare import compare_columns
from vamkit.csvio import _BLOCK_BYTES
from vamkit.measures import compute_measure

from conftest import random_cohort
from output_digests import digests, run_pipeline


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


# SHA-256 of `simulate --schools 40 --seed 0`'s files. A change that alters
# them on purpose updates these and says why.
SIMULATE_40_0 = {
    "pupils.csv": "1e162cbe70c2f9e41544f847052b459644e148940f8f5c9e090d316943cd878d",
    "schools.csv": "8b50acea3fd09a13c1a729eee59c62d492fc264a77df45905071b3ebaace8730",
    "truth.csv": "f4848c46f45108933fa294ccd4f4387758d74bcc3a3cf8633b45136a0d921f82",
}


def test_simulate_output_is_pinned(tmp_path):
    run_ok(["simulate", "--schools", "40", "--seed", "0", "--out", str(tmp_path)])
    for name, digest in SIMULATE_40_0.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_pipeline_outputs_are_pinned(tmp_path):
    # every file simulate, fit, breakdown and compare write at 40 schools,
    # seed 0 (see output_digests.py); a change that alters them on purpose
    # regenerates pipeline_40_0.sha256 with that script and says why
    pin = Path(__file__).with_name("pipeline_40_0.sha256").read_text().splitlines()
    run_pipeline(tmp_path, 40, 0)
    assert digests(tmp_path) == pin


def test_simulate_reports_clipped_outcomes(tmp_path):
    from vamkit.synthgen import GeneratorConfig, generate_population

    reports = []
    for run_dir in ("a", "b"):
        run_ok(["simulate", "--schools", "40", "--seed", "7", "--out", str(tmp_path / run_dir)])
        reports.append(json.loads((tmp_path / run_dir / "manifest.json").read_text())["report"])
    n_clipped = generate_population(GeneratorConfig(n_schools=40, seed=7)).n_clipped
    assert n_clipped > 0
    assert reports == [{"n_clipped": n_clipped}] * 2


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


def test_validate_caps_long_id_lists(tmp_path, capsys):
    # every pupil of the default cohort twice: the error lists 20 ids and a count
    sim = tmp_path / "sim"
    run_ok(["simulate", "--schools", "300", "--seed", "612", "--out", str(sim)])
    data = (sim / "pupils.csv").read_bytes()
    header, body = data.split(b"\n", 1)
    n_pupils = body.count(b"\n")
    pupils = tmp_path / "pupils.csv"
    pupils.write_bytes(header + b"\n" + body + body)

    capsys.readouterr()
    assert run(["validate", "--pupils", str(pupils), "--schools", str(sim / "schools.csv")]) == 1
    err = capsys.readouterr().err
    (line,) = err.splitlines()
    assert len(line.encode()) < 2048
    assert "duplicate pupil_id values: P000001, " in line
    assert line.endswith(f"(and {n_pupils - 20} more; {n_pupils} in all)")


@pytest.mark.parametrize("command", ["validate", "fit"])
def test_unprintable_id_is_named_on_one_line(tmp_path, sim_dir, capsys, command):
    # the first two pupils share the quoted id "P\nX"
    lines = (sim_dir / "pupils.csv").read_text().splitlines(keepends=True)
    for i in (1, 2):
        lines[i] = '"P\nX"' + lines[i][lines[i].index(","):]
    pupils = tmp_path / "pupils.csv"
    pupils.write_text("".join(lines))
    argv = [command, "--pupils", str(pupils), "--schools", str(sim_dir / "schools.csv")]
    if command == "fit":
        argv += ["--out", str(tmp_path / "fit")]
    capsys.readouterr()
    assert run(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"{pupils}: duplicate pupil_id values: 'P\\nX'"


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
    assert manifest["inputs"][str(config)] == hashlib.sha256(config.read_bytes()).hexdigest()


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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fit_reads_cohort_files_from_pipes(tmp_path, sim_dir, fit_dir):
    # a pipe cannot seek, as `--pupils <(gunzip -c ...)` shows: each file is
    # read once, forward, even when a quote in its last row switches the
    # read to the csv route
    plain = {name: (sim_dir / name).read_bytes() for name in ("pupils.csv", "schools.csv")}
    head, last = plain["pupils.csv"][:-1].rsplit(b"\n", 1)
    late_quote = head + b'\n"' + last.replace(b",", b'",', 1) + b"\n"
    for case, pupils in (("plain", plain["pupils.csv"]), ("late-quote", late_quote)):
        feeds = {"pupils.csv": pupils, "schools.csv": plain["schools.csv"]}
        pipes = {}
        for name in feeds:
            pipes[name] = tmp_path / f"{case}-{name}"
            os.mkfifo(pipes[name])
        feeders = [
            threading.Thread(target=pipe.write_bytes, args=(feeds[name],), daemon=True)
            for name, pipe in pipes.items()
        ]
        for feeder in feeders:
            feeder.start()
        out = tmp_path / f"fit-{case}"
        run_ok([
            "fit",
            "--pupils", str(pipes["pupils.csv"]),
            "--schools", str(pipes["schools.csv"]),
            "--measures", "all",
            "--out", str(out),
        ])
        for feeder in feeders:
            feeder.join(timeout=10)
            assert not feeder.is_alive()
        for name in sorted(p.name for p in fit_dir.iterdir() if p.suffix == ".csv"):
            assert (out / name).read_bytes() == (fit_dir / name).read_bytes(), (case, name)
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        for name, pipe in pipes.items():
            assert inputs[str(pipe)] == hashlib.sha256(feeds[name]).hexdigest(), (case, name)


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


def test_compare_strips_padded_school_ids(tmp_path, fit_dir):
    # a score file's ids are stripped as the cohort files' are, so padding
    # changes no school
    lines = (fit_dir / "school_scores_p8.csv").read_text().splitlines()
    padded = tmp_path / "padded_p8.csv"
    padded.write_text(
        "\n".join([lines[0]] + [f"  {line.replace(',', ' ,', 1)}" for line in lines[1:]]) + "\n"
    )
    reports = []
    for p8 in (fit_dir / "school_scores_p8.csv", padded):
        out = tmp_path / f"cmp_{p8.stem}"
        run_ok(["compare", "--scores", str(fit_dir / "school_scores_a8.csv"), "--scores", str(p8),
                "--out", str(out)])
        reports.append((out / "comparison.json").read_bytes())
    assert reports[0] == reports[1]


def test_comparison_json_is_compare_columns_dumped(tmp_path):
    # comparison.json is compare_columns's object as json.dumps writes it,
    # for all six pairs of the measures fitted at 40 schools, seed 0
    sim, fit = tmp_path / "sim", tmp_path / "fit"
    run_ok(["simulate", "--schools", "40", "--seed", "0", "--out", str(sim)])
    cohort_files = ["--pupils", str(sim / "pupils.csv"), "--schools", str(sim / "schools.csv")]
    run_ok(["fit", *cohort_files, "--measures", "all", "--out", str(fit)])
    with open(sim / "pupils.csv", "rb") as pupils, open(sim / "schools.csv", "rb") as schools:
        cohort = validate_cohort(parse_pupils(pupils)[0], parse_schools(schools)[0])
    columns = {kind.code: compute_measure(cohort, kind).school_columns for kind in MeasureKind}
    for a, b in itertools.combinations(columns, 2):
        out = tmp_path / f"compare_{a}_{b}"
        run_ok(["compare", "--scores", str(fit / f"school_scores_{a}.csv"),
                "--scores", str(fit / f"school_scores_{b}.csv"), "--out", str(out)])
        expected = json.dumps(compare_columns(columns[a], columns[b], [500, 1000]), indent=2)
        assert (out / "comparison.json").read_bytes() == (expected + "\n").encode("utf-8"), (a, b)


def test_ids_that_need_quoting_round_trip(tmp_path):
    renamed = {"S000": "S1,North", "S001": 'S2"x', "S002": "S3\rx"}
    cohort = random_cohort(7)

    def rename(table):
        ids = [renamed.get(sid, sid) for sid in decode_ids(table["school_id"])]
        return table.replace(school_id=np.array(ids))

    pupils, schools = rename(cohort.pupil_table), rename(cohort.school_table)
    (tmp_path / "pupils.csv").write_bytes(b"".join(serialize_blocks(pupils)))
    (tmp_path / "schools.csv").write_bytes(b"".join(serialize_blocks(schools)))
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
        assert sorted(ids) == sorted(decode_ids(schools["school_id"]))


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


@pytest.fixture(scope="module")
def sim_40_0(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim_40_0")
    run_ok(["simulate", "--schools", "40", "--seed", "0", "--out", str(out)])
    return out


def _check_breakdown_of_every_characteristic(out):
    """The 15 breakdown files, each byte-identical to its single --by run's
    with --measures all, as pinned at 40/0."""
    pin = Path(__file__).with_name("pipeline_40_0.sha256").read_text().splitlines()
    digest_of = {path: digest for digest, path in (line.split("  ") for line in pin)}
    names = sorted(f"breakdown_{by}.csv" for by in PUPIL_CHARACTERISTICS + SCHOOL_CHARACTERISTICS)
    assert len(names) == 15
    assert json.loads((out / "manifest.json").read_text())["outputs"] == names
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.json"])
    for name in names:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == digest_of[f"{name[:-4]}/{name}"], name


def _breakdown(sim, out, measures, by):
    run_ok([
        "breakdown",
        "--pupils", str(sim / "pupils.csv"),
        "--schools", str(sim / "schools.csv"),
        "--measures", measures,
        "--by", by,
        "--out", str(out),
    ])


def test_breakdown_by_all_writes_the_single_runs_files(tmp_path, sim_40_0):
    # one parse and one fit per measure for every characteristic
    _breakdown(sim_40_0, tmp_path / "bd", "all", "all")
    _check_breakdown_of_every_characteristic(tmp_path / "bd")


def test_all_inside_a_list_means_every_value(tmp_path, sim_40_0):
    # 'all' anywhere in a list is every value, in canonical order
    _breakdown(sim_40_0, tmp_path / "bd", "all,a8", "fsm,all")
    _check_breakdown_of_every_characteristic(tmp_path / "bd")


def test_breakdown_by_list_drops_repeats(tmp_path, sim_dir):
    out = tmp_path / "bd"
    run_ok([
        "breakdown",
        "--pupils", str(sim_dir / "pupils.csv"),
        "--schools", str(sim_dir / "schools.csv"),
        "--by", "fsm,region,fsm",
        "--out", str(out),
    ])
    names = ["breakdown_fsm.csv", "breakdown_region.csv"]
    assert json.loads((out / "manifest.json").read_text())["outputs"] == names
    assert sorted(p.name for p in out.iterdir()) == names + ["manifest.json"]


def test_unknown_characteristic_is_usage_error(tmp_path, sim_dir, capsys):
    out = tmp_path / "bd"
    code = run([
        "breakdown",
        "--pupils", str(sim_dir / "pupils.csv"),
        "--schools", str(sim_dir / "schools.csv"),
        "--by", "fsm,shoe_size",
        "--out", str(out),
    ])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "unknown characteristic 'shoe_size'" in errors[0]
    valid = errors[0].split("valid: ", 1)[1].split(", ")
    assert valid == ["all", *PUPIL_CHARACTERISTICS, *SCHOOL_CHARACTERISTICS]
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit codes and errors
# ---------------------------------------------------------------------------


def test_unknown_flag_is_usage_error(capsys):
    assert run(["fit", "--bogus", "x"]) == 2
    capsys.readouterr()


def test_unknown_measure_is_usage_error(capsys):
    assert run(["fit", "--pupils", "p", "--schools", "s", "--measures", "zz", "--out", "o"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("n_files", [1, 3])
def test_compare_needs_exactly_two_scores_files(tmp_path, fit_dir, capsys, n_files):
    out = tmp_path / "cmp"
    scores = ["--scores", str(fit_dir / "school_scores_a8.csv")] * n_files
    assert run(["compare", *scores, "--out", str(out)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--scores" in errors[0]
    assert not out.exists()


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


@pytest.mark.parametrize(
    "case, package",
    [("import", "numpy"), ("package", "numpy"), ("compare", "numpy"), ("simulate", "scipy")],
)
def test_cli_import_loads_no_scipy(tmp_path, fit_dir, case, package):
    # vamkit needs only numpy, and scipy would add about a third of a second to
    # every CLI start; compare needs only the standard library, so neither the
    # import nor a compare run loads numpy
    src = str(Path(vamkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    scores = [str(fit_dir / f"school_scores_{code}.csv") for code in ("a8", "p8")]
    argv = {
        "simulate": ["simulate", "--schools", "3", "--seed", "0", "--out", str(tmp_path / "sim")],
        "compare": ["compare", "--scores", scores[0], "--scores", scores[1],
                    "--out", str(tmp_path / "cmp")],
    }.get(case)
    code = "import sys, vamkit" if case == "package" else "import sys, vamkit.cli"
    if argv is not None:
        code += f"; assert vamkit.cli.run({argv!r}) == 0"
    code += f"; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy < 2 imports both with numpy")
def test_fit_loads_no_numpy_ma_or_char(tmp_path, sim_dir):
    # numpy.ma (8-12 ms) is imported by np.unique without index outputs, as
    # np.setdiff1d calls it, and numpy.char (2-3 ms) by its string functions;
    # a fit needs neither
    src = str(Path(vamkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["fit", "--pupils", str(sim_dir / "pupils.csv"), "--schools", str(sim_dir / "schools.csv"),
            "--measures", "all", "--out", str(tmp_path / "fit")]
    code = (
        f"import sys, vamkit.cli; assert vamkit.cli.run({argv!r}) == 0; "
        "print([m for m in ('numpy.ma', 'numpy.char') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _edited_scores(tmp_path, fit_dir, row, column, value, *more):
    """school_scores_a8.csv with ``value`` in data row ``row`` (from 1) of
    ``column``, and each further ``(row, column, value)`` edit in ``more``."""
    rows = read_csv(fit_dir / "school_scores_a8.csv")
    for at, name, text in [(row, column, value), *more]:
        rows[at - 1][name] = text
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


# where _scores_with_a_late_bad_byte puts its byte: past the first block read
LATE_BYTE = _BLOCK_BYTES + 20_000


def _scores_with_a_late_bad_byte(tmp_path, fit_dir):
    """school_scores_a8.csv with its rows repeated past a block of bytes and
    its byte at ``LATE_BYTE`` made one that is not UTF-8."""
    head, rows = (fit_dir / "school_scores_a8.csv").read_bytes().split(b"\n", 1)
    data = head + b"\n" + rows * (2 * _BLOCK_BYTES // len(rows) + 1)
    path = tmp_path / "late_bad_byte_scores.csv"
    path.write_bytes(data[:LATE_BYTE] + b"\xff" + data[LATE_BYTE + 1:])
    argv = ["compare", "--scores", str(fit_dir / "school_scores_a8.csv"), "--scores", str(path)]
    return argv, path


def _edited_cohort(tmp_path, sim_dir, command, name, edit, *flags):
    """``command`` with ``flags`` on the simulated cohort with file ``name``
    passed through ``edit``."""
    path = tmp_path / name
    path.write_bytes(edit((sim_dir / name).read_bytes()))
    files = {n: str(path if n == name else sim_dir / n) for n in ("pupils.csv", "schools.csv")}
    argv = [command, "--pupils", files["pupils.csv"], "--schools", files["schools.csv"], *flags]
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


def _first_ks2_emptied(data):
    lines = data.split(b"\n")
    cells = lines[1].split(b",")
    cells[lines[0].split(b",").index(b"ks2_group")] = b""
    lines[1] = b",".join(cells)
    return b"\n".join(lines)


def _column_set(name, value):
    """An edit that sets column ``name`` of every data row to ``value``."""

    def edit(data):
        lines = data.rstrip(b"\n").split(b"\n")
        j = lines[0].split(b",").index(name)
        rows = [line.split(b",") for line in lines[1:]]
        for cells in rows:
            cells[j] = value
        return b"\n".join([lines[0]] + [b",".join(cells) for cells in rows]) + b"\n"

    return edit


# a constant outcome under each command and measure
CONSTANT_OUTCOME_CASES = [(c, m) for c in ("fit", "breakdown") for m in ("a8", "aa8", "p8", "ap8")]


def _constant_outcome(command, measure):
    """``command --measures measure`` on the cohort with every outcome 50."""
    return lambda t, f, s: _edited_cohort(
        t, s, command, "pupils.csv", _column_set(b"attainment8_total", b"50"),
        "--measures", measure,
    )


def _repeated_score_row(tmp_path, fit_dir):
    path = tmp_path / "repeated_scores.csv"
    path.write_bytes(_first_row_repeated((fit_dir / "school_scores_a8.csv").read_bytes()))
    argv = ["compare", "--scores", str(fit_dir / "school_scores_a8.csv"), "--scores", str(path)]
    return argv, path


def _first_score_ids_blanked(tmp_path, fit_dir):
    """school_scores_a8.csv and school_scores_p8.csv, each with its first
    school_id blank: the two files still hold the same schools."""
    paths = []
    for code in ("a8", "p8"):
        lines = (fit_dir / f"school_scores_{code}.csv").read_text().splitlines()
        lines[1] = lines[1][lines[1].index(","):]
        paths.append(tmp_path / f"blank_id_{code}.csv")
        paths[-1].write_text("\n".join(lines) + "\n")
    return ["compare", "--scores", str(paths[0]), "--scores", str(paths[1])], paths[0]


def _first_id_over_field_limit(data):
    """The first pupil_id quoted and one character over the csv module's limit."""
    head, first, rest = data.split(b"\n", 2)
    cells = first.split(b",")
    cells[0] = b'"' + b"P" * 131073 + b'"'
    return b"\n".join([head, b",".join(cells), rest])


# an integer too large for a float or an int64
HUGE = 10**400


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
        (
            lambda t, f, s: _edited_cohort(t, s, "fit", "pupils.csv", _first_ks2_emptied),
            ["ks2_group is missing for pupils: P"],
        ),
        (
            lambda t, f, s: _edited_cohort(
                t, s, "breakdown", "pupils.csv", _first_ks2_emptied, "--measures", "p8"
            ),
            ["ks2_group is missing for pupils: P"],
        ),
        *[
            (_constant_outcome(command, measure), ["national_sd must be positive"])
            for command, measure in CONSTANT_OUTCOME_CASES
        ],
        (lambda t, f, s: _config(t, '{"n_schools": 8, "seed": '), ["JSON"]),
        (lambda t, f, s: _config(t, '{"n_schools": "x"}'), ["n_schools", "'x'"]),
        (lambda t, f, s: _config(t, '{"coefficient_set": {"constant": NaN}}'), ["constant"]),
        (lambda t, f, s: _config(t, "[1, 2]"), ["config must be a JSON object"]),
        (lambda t, f, s: _config(t, '{"nope": 1}'), ["invalid generator config", "'nope'"]),
        (lambda t, f, s: _config(t, '{"seed": -1}'), ["seed must be nonnegative, got -1"]),
        (lambda t, f, s: _config(t, '{"noise_sd": "x"}'), ["noise_sd must be a finite number"]),
        (
            lambda t, f, s: _config(t, '{"school_size_range": [1]}'),
            ["school_size_range must be two integers"],
        ),
        (
            lambda t, f, s: _config(t, '{"coefficient_set": [1, 2]}'),
            ["coefficient table must map design labels to numbers"],
        ),
        # numbers too large for a float or an int64 fail before any array is made
        (lambda t, f, s: _config(t, f'{{"noise_sd": {HUGE}}}'), ["noise_sd must be a finite number"]),
        (
            lambda t, f, s: _config(t, f'{{"intake_gradient": {HUGE}}}'),
            ["intake_gradient must be a finite number"],
        ),
        (
            lambda t, f, s: _config(t, f'{{"coefficient_set": {{"constant": -{HUGE}}}}}'),
            ["coefficient(s) must be finite numbers: constant"],
        ),
        (
            lambda t, f, s: _config(t, f'{{"n_schools": {HUGE}}}'),
            [f"n_schools must be at most {2**63 - 1}, got {HUGE}"],
        ),
        (
            lambda t, f, s: _config(t, f'{{"school_size_range": [1, {HUGE}]}}'),
            [f"school_size_range must be at most {2**63 - 1}, got (1, {HUGE})"],
        ),
        (lambda t, f, s: _config(t, f'{{"seed": 1{"0" * 5000}}}'), ["not a JSON file"]),
        (lambda t, f, s: _repeated_score_row(t, f), ["duplicate school_id in score list"]),
        (
            lambda t, f, s: _edited_cohort(t, s, "fit", "pupils.csv", _first_id_over_field_limit),
            ["is malformed: field larger than field limit (131072)"],
        ),
        (
            lambda t, f, s: _edited_scores(t, f, 2, "measure", "p8"),
            ["row 2, column measure: expected a8 as in row 1, got p8"],
        ),
        # both bad cells in one block: the earlier row is named, not the earlier column
        (
            lambda t, f, s: _edited_scores(t, f, 5, "ci_high", "x", (7, "score", "y")),
            ["row 5, column ci_high: could not convert string to float: 'x'"],
        ),
        (
            lambda t, f, s: _edited_scores(t, f, 4, "ci_low", "inf"),
            ["row 4, column ci_low: must be a finite number, got 'inf'"],
        ),
        (
            lambda t, f, s: _edited_scores(t, f, 4, "ci_low", "1e400"),
            ["row 4, column ci_low: must be a finite number, got '1e400'"],
        ),
        (
            lambda t, f, s: _first_score_ids_blanked(t, f),
            ["row 1, column school_id: must not be empty"],
        ),
        (
            lambda t, f, s: _edited_scores(t, f, 3, "school_id", "S" * 65),
            ["row 3, column school_id: must be at most 64 characters, got 65"],
        ),
        (
            lambda t, f, s: _edited_scores(t, f, 3, "school_id", "   "),
            ["row 3, column school_id: must not be empty"],
        ),
        (
            lambda t, f, s: _scores_with_a_late_bad_byte(t, f),
            ["not valid UTF-8", f"byte 0xff in position {LATE_BYTE}"],
        ),
    ],
    ids=[
        "non-numeric-score", "unknown-measure", "nan-score", "extra-score-cell",
        "first-bad-score-row", "duplicate-score-column", "pupils-not-utf8", "schools-not-utf8", "pupils-bad-header",
        "schools-bad-header", "duplicate-pupil-row", "duplicate-school-row", "unknown-school-id",
        "no-pupils", "fit-missing-ks2", "breakdown-missing-ks2",
        # the a8 cases keep their ids from before the other measures were added
        *[
            f"{command}-constant-outcome" + ("" if measure == "a8" else f"-{measure}")
            for command, measure in CONSTANT_OUTCOME_CASES
        ],
        "truncated-json",
        "string-n_schools", "nan-coefficient", "config-not-object", "config-unknown-key",
        "negative-seed", "string-noise_sd", "one-size-range", "coefficient-list",
        "huge-noise_sd", "huge-intake_gradient", "huge-coefficient", "huge-n_schools",
        "huge-size-range", "seed-over-digit-limit",
        "duplicate-score-row", "cell-over-field-limit", "mixed-measures", "two-bad-score-cells",
        "inf-ci-low", "overflow-ci-low", "blank-score-ids", "long-score-id",
        "whitespace-score-id", "late-non-utf8-score-byte",
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


def test_failed_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    # a write that fails part way (a full disk, say) removes its temp file
    import vamkit.synthgen

    real = vamkit.synthgen.serialize_blocks

    def first_piece_then_full(table):
        pieces = real(table)
        yield next(pieces)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(vamkit.synthgen, "serialize_blocks", first_piece_then_full)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["simulate", "--schools", "40", "--seed", "0", "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "No space left on device" in line
    assert list(out.glob(".tmp.*")) == []


def test_fit_writes_nothing_when_a_later_measure_fails(tmp_path, sim_dir, capsys):
    # a8 fits without ks2_group and p8 does not: fit runs one measure at a
    # time, and writes no file until every measure is done
    out = tmp_path / "out"
    argv, path = _edited_cohort(
        tmp_path, sim_dir, "fit", "pupils.csv", _first_ks2_emptied,
        "--measures", "a8,p8", "--out", str(out),
    )
    capsys.readouterr()
    assert run(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{path}: ") and "ks2_group is missing for pupils: P" in line
    assert not (out / "coefficients_a8.csv").exists()
    assert list(out.iterdir()) == []


def test_one_school_fit_error_names_the_pupils_file(tmp_path, sim_dir, capsys):
    first = read_csv(sim_dir / "schools.csv")[0]["school_id"].encode()
    argv, path = _edited_cohort(
        tmp_path, sim_dir, "fit", "pupils.csv", _column_set(b"school_id", first),
        "--measures", "a8", "--out", str(tmp_path / "out"),
    )
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"{path}: "), err
    assert "fewer than 2 clusters" in err[-1]
    # the empty schools are dropped and the single school's SD is reported as 0
    assert len(err) == 3 and all(line.startswith("warning: ") for line in err[:-1]), err


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
