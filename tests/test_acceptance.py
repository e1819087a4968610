"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration. National headline values are not reproducible from synthetic
data and are treated as documentation (see README); acceptance rests on the
property/oracle checks below.
"""

import itertools
import json
import time
import warnings

import numpy as np
import pytest

from vamkit.analysis import pupil_breakdown
from vamkit.categories import MeasureKind, SignificanceCategory
from vamkit.cli import run
from vamkit.cohort import validate_cohort
from vamkit.compare import rank_movement
from vamkit.measures import compute_measure
from vamkit.ols import cluster_robust_cov, fit_ols
from vamkit.synthgen import DEFAULT_COEFFICIENTS, GeneratorConfig, generate_population

from dense_design import DenseDesign

A8 = MeasureKind.ATTAINMENT8
AA8 = MeasureKind.ADJUSTED_ATTAINMENT8
P8 = MeasureKind.PROGRESS8
AP8 = MeasureKind.ADJUSTED_PROGRESS8

DEFAULT_SEED = 612


def report(criterion, text):
    print(f"ACCEPTANCE PASS criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def default_population():
    """The seed-fixed default cohort (300 schools) used by criteria 2-4."""
    return generate_population(GeneratorConfig(seed=DEFAULT_SEED))


@pytest.fixture(scope="module")
def default_results(default_population):
    return {kind: compute_measure(default_population.cohort, kind) for kind in MeasureKind}


# ---------------------------------------------------------------------------
# Criterion 1: OLS oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_ols_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    for trial in range(200):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(k + 2, 51))
        x = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k - 1)])
        y = rng.normal(loc=rng.uniform(-5, 5), scale=rng.uniform(0.5, 3.0), size=n)
        design = DenseDesign(x, ["constant"] + [f"x{j}" for j in range(1, k)])
        fit = fit_ols(design, y)

        # independent brute force: explicit normal equations
        xtx = np.zeros((k, k))
        xty = np.zeros(k)
        for i in range(n):
            for a in range(k):
                xty[a] += x[i, a] * y[i]
                for b in range(k):
                    xtx[a, b] += x[i, a] * x[i, b]
        oracle = np.linalg.solve(xtx, xty)

        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(fit.coefficients - oracle)) <= 1e-10 * scale
        y_scale = max(1.0, float(np.max(np.abs(y))))
        for j in range(k):
            assert abs(float(fit.residuals @ x[:, j])) <= 1e-7 * n * y_scale
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s (budget 5s)"
    report(1, f"200 random instances match normal-equations oracle to 1e-10 ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# Criterion 2: Progress measure equals the group-mean construction
# ---------------------------------------------------------------------------


def test_criterion_2_group_mean_equivalence(default_population, default_results):
    cohort = default_population.cohort
    scores = default_results[P8].scores
    y = cohort.pupil_table["attainment8_total"]
    groups = cohort.pupil_table["ks2_group"]
    means = {g: y[groups == g].mean() for g in np.unique(groups)}
    oracle = np.array([(yi - means[g]) / 10.0 for yi, g in zip(y, groups)])
    worst = float(np.max(np.abs(scores - oracle)))
    assert worst <= 1e-10
    report(2, f"P8 pupil scores equal within-group-centred outcome/10 (max dev {worst:.1e})")


# ---------------------------------------------------------------------------
# Criterion 3: orthogonality / zero category means; raw measure adj R^2 = 0
# ---------------------------------------------------------------------------


_CHARACTERISTIC_OF_BLOCK = {
    "prior": ("ks2_group",),
    "background": (
        "month_of_birth",
        "gender",
        "ethnicity",
        "first_language",
        "sen",
        "fsm",
        "idaci_decile",
    ),
}


def test_criterion_3_zero_category_means(default_population, default_results):
    cohort = default_population.cohort
    checked = 0
    for kind, result in default_results.items():
        spec = kind.model_spec
        adjusted = []
        if spec.include_prior_attainment:
            adjusted += _CHARACTERISTIC_OF_BLOCK["prior"]
        if spec.include_background:
            adjusted += _CHARACTERISTIC_OF_BLOCK["background"]
        if not adjusted:
            continue
        table = {
            ch: pupil_breakdown(cohort, {kind: result.scores}, ch)
            for ch in adjusted
        }
        for ch, breakdown in table.items():
            for row in breakdown.rows:
                if row.n_pupils == 0:
                    continue
                mean = row.means[kind]
                assert abs(mean) <= 1e-9, (
                    f"{kind.code} {ch}={row.category}: mean {mean:.2e} not 0"
                )
                checked += 1
    assert default_results[A8].fit.adjusted_r_squared == 0.0
    assert default_results[A8].summary.adjusted_r_squared == 0.0
    report(3, f"{checked} adjusted category means are 0 +/- 1e-9; raw adj R^2 exactly 0.0")


# ---------------------------------------------------------------------------
# Criterion 4: nested-model orderings on the default cohort
# ---------------------------------------------------------------------------


def test_criterion_4_nested_orderings(default_results):
    rss = {k: r.fit.rss for k, r in default_results.items()}
    sd = {k: r.summary.sd_pupil_scores for k, r in default_results.items()}
    assert rss[AP8] <= rss[P8] <= rss[A8]
    assert rss[AP8] <= rss[AA8] <= rss[A8]
    assert sd[A8] >= sd[AA8] >= sd[AP8]
    assert sd[A8] >= sd[P8] >= sd[AP8]
    report(
        4,
        "RSS and pupil-score SD nested orderings hold "
        f"(SDs: {sd[A8]:.3f} >= {sd[AA8]:.3f}/{sd[P8]:.3f} >= {sd[AP8]:.3f})",
    )


# ---------------------------------------------------------------------------
# Criterion 5: cluster-robust covariance oracle
# ---------------------------------------------------------------------------


def test_criterion_5_cluster_covariance_oracle():
    rng = np.random.default_rng(505)
    done = 0
    while done < 100:
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k + 3, 40))
        n_clusters = int(rng.integers(2, 7))
        clusters = [int(c) for c in rng.integers(0, n_clusters, size=n)]
        if len(set(clusters)) < 2:
            continue
        x = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k - 1)])
        y = rng.normal(size=n)
        design = DenseDesign(x, ["constant"] + [f"x{j}" for j in range(1, k)])
        fit = fit_ols(design, y)
        cov = cluster_robust_cov(fit, design, clusters)

        # hand-rolled CR1
        xtx_inv = np.linalg.inv(x.T @ x)
        meat = np.zeros((k, k))
        for g in sorted(set(clusters)):
            h = np.zeros(k)
            for i in range(n):
                if clusters[i] == g:
                    h += x[i] * fit.residuals[i]
            meat += np.outer(h, h)
        g_count = len(set(clusters))
        c = (g_count / (g_count - 1)) * ((n - 1) / (n - k))
        expected = c * xtx_inv @ meat @ xtx_inv
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(cov.covariance - expected)) <= 1e-10 * scale
        done += 1

    # singleton clusters reduce to the heteroskedasticity-robust form
    n, k = 60, 3
    x = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    y = rng.normal(size=n)
    design = DenseDesign(x, ["constant", "x1", "x2"])
    fit = fit_ols(design, y)
    cov = cluster_robust_cov(fit, design, list(range(n)))
    xtx_inv = np.linalg.inv(x.T @ x)
    xe = x * fit.residuals[:, None]
    hc = (n / (n - k)) * xtx_inv @ (xe.T @ xe) @ xtx_inv
    assert np.max(np.abs(cov.covariance - hc)) <= 1e-10 * max(1.0, float(np.max(np.abs(hc))))
    report(5, "100 instances match hand-rolled CR1 to 1e-10; singleton case = HC form")


# ---------------------------------------------------------------------------
# Criterion 6: DGP recovery with the published fully-adjusted coefficients
# ---------------------------------------------------------------------------


def test_criterion_6_dgp_recovery():
    started = time.monotonic()
    pop = generate_population(GeneratorConfig(seed=DEFAULT_SEED))
    results = {kind: compute_measure(pop.cohort, kind) for kind in MeasureKind}

    adj_r2 = results[AP8].fit.adjusted_r_squared
    assert abs(adj_r2 - 0.62) <= 0.05, f"AP8 adjusted R^2 {adj_r2:.4f} not ~0.62"

    fit = results[AP8].fit
    cov = cluster_robust_cov(fit, results[AP8].design, pop.cohort.pupil_table["school_id"])
    within = 0
    for label, estimate, se in zip(fit.labels, fit.coefficients, cov.standard_errors):
        if abs(estimate - DEFAULT_COEFFICIENTS[label]) <= 3.0 * se:
            within += 1
    share = within / fit.k_effective
    assert share >= 0.95, f"only {within}/{fit.k_effective} coefficients within 3 SE"

    truth = pop.true_school_effects
    corr = {}
    for kind, result in results.items():
        ids = [s.school_id for s in result.school_scores]
        sc = np.array([s.score for s in result.school_scores])
        tr = np.array([truth[i] for i in ids])
        corr[kind] = float(np.corrcoef(sc, tr)[0, 1])
    assert max(corr, key=corr.get) is AP8, f"truth correlations {corr}"

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s (budget 60s)"
    report(
        6,
        f"adj R^2 {adj_r2:.3f}; {within}/{fit.k_effective} coefficients within 3 SE; "
        f"truth corr AP8 {corr[AP8]:.3f} highest ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# Criterion 7: confidence-interval coverage for null schools
# ---------------------------------------------------------------------------


def test_criterion_7_ci_coverage():
    n_reps = 500
    held_total = 0
    held_not_significant = 0
    base = dict(
        n_schools=40,
        school_size_range=(40, 80),
        true_school_effect_sd=2.0,
        noise_sd=12.0,
        coefficient_set={"constant": 45.0},
        intake_gradient=0.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # partial coefficient table warns by design
        for rep in range(n_reps):
            pop = generate_population(GeneratorConfig(seed=9000 + rep, **base))
            cohort = pop.cohort
            held = set(sorted(pop.true_school_effects)[::2])
            # null the held-out schools by removing their known true effect
            school_ids = cohort.school_table["school_id"].tolist()
            removed = np.array(
                [pop.true_school_effects[sid] if sid in held else 0.0 for sid in school_ids]
            )
            outcome = cohort.pupil_table["attainment8_total"] - removed[cohort.school_index]
            nulled = validate_cohort(
                cohort.pupil_table.replace(attainment8_total=outcome), cohort.school_table
            )
            result = compute_measure(nulled, A8)
            for school in result.school_scores:
                if school.school_id in held:
                    held_total += 1
                    if school.category is SignificanceCategory.NOT_SIGNIFICANT:
                        held_not_significant += 1
    coverage = held_not_significant / held_total
    assert 0.93 <= coverage <= 0.97, f"coverage {coverage:.4f} outside 0.95 +/- 0.02"
    report(7, f"null-school NotSignificant rate {coverage:.4f} in [0.93, 0.97] "
              f"({held_total} school-tests over {n_reps} replicates)")


# ---------------------------------------------------------------------------
# Criterion 8: rank movement vs brute force, exhaustively
# ---------------------------------------------------------------------------


def brute_force_movements(ids, scores_a, scores_b):
    """Independent ranks: sort by (-score, id), positions are ranks."""
    order_a = sorted(ids, key=lambda i: (-scores_a[i], i))
    order_b = sorted(ids, key=lambda i: (-scores_b[i], i))
    rank_a = {sid: r + 1 for r, sid in enumerate(order_a)}
    rank_b = {sid: r + 1 for r, sid in enumerate(order_b)}
    return {sid: abs(rank_a[sid] - rank_b[sid]) for sid in ids}


def as_scores(values_by_id, measure=A8):
    return {
        "school_id": list(values_by_id),
        "measure": [measure] * len(values_by_id),
        "score": list(values_by_id.values()),
    }


def test_criterion_8_rank_movement_exhaustive():
    checked = 0
    for n in range(2, 7):
        ids = [f"S{i}" for i in range(n)]
        base_scores = {sid: float(n - i) for i, sid in enumerate(ids)}
        for perm in itertools.permutations(range(n)):
            permuted = {ids[i]: float(n - perm[i]) for i in range(n)}
            thresholds = list(range(1, n + 1))
            counts, max_change = rank_movement(
                as_scores(base_scores), as_scores(permuted), thresholds
            )
            moves = brute_force_movements(ids, base_scores, permuted)
            for t in thresholds:
                expected = sum(1 for m in moves.values() if m >= t)
                assert counts[t] == expected
            assert max_change == max(moves.values())
            checked += 1
    # ties: equal scores fall back to id order on both sides
    tied = {f"S{i}": 1.0 for i in range(5)}
    counts, max_change = rank_movement(as_scores(tied), as_scores(tied), [1])
    assert counts[1] == 0 and max_change == 0

    # monotonicity in threshold on random instances
    rng = np.random.default_rng(808)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        a = {f"S{i:02d}": float(v) for i, v in enumerate(rng.normal(size=n))}
        b = {f"S{i:02d}": float(v) for i, v in enumerate(rng.normal(size=n))}
        thresholds = list(range(1, n + 1))
        counts, _ = rank_movement(as_scores(a), as_scores(b), thresholds)
        series = [counts[t] for t in thresholds]
        assert all(x >= y for x, y in zip(series, series[1:]))
    report(8, f"rank movement matches brute force on {checked} permutations (n <= 6); "
              "counts monotone in threshold")


# ---------------------------------------------------------------------------
# Criterion 9: CLI determinism and composition
# ---------------------------------------------------------------------------


def run_pipeline(root):
    sim = root / "sim"
    fit = root / "fit"
    cmp_dir = root / "cmp"
    bd = root / "bd"
    assert run(["simulate", "--seed", "4242", "--schools", "50", "--out", str(sim)]) == 0
    assert run([
        "fit", "--pupils", str(sim / "pupils.csv"), "--schools", str(sim / "schools.csv"),
        "--measures", "all", "--out", str(fit),
    ]) == 0
    assert run([
        "compare",
        "--scores", str(fit / "school_scores_a8.csv"),
        "--scores", str(fit / "school_scores_ap8.csv"),
        "--thresholds", "5,10", "--out", str(cmp_dir),
    ]) == 0
    assert run([
        "breakdown", "--pupils", str(sim / "pupils.csv"), "--schools", str(sim / "schools.csv"),
        "--measures", "aa8", "--by", "fsm", "--out", str(bd),
    ]) == 0
    return root


def collect_files(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_criterion_9_cli_determinism_and_composition(tmp_path):
    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    files_a = collect_files(first)
    files_b = collect_files(second)
    assert set(files_a) == set(files_b)
    compared = 0
    for name in files_a:
        if name.endswith("manifest.json"):
            a = json.loads(files_a[name])
            b = json.loads(files_b[name])
            a.pop("wall_time_s")
            b.pop("wall_time_s")
            # command lines contain the differing tmp dirs; inputs/ outputs must agree
            assert a["outputs"] == b["outputs"]
            assert list(a["inputs"].values()) == list(b["inputs"].values())
            assert a["seed"] == b["seed"] and a["version"] == b["version"]
        else:
            assert files_a[name] == files_b[name], f"{name} differs between runs"
            compared += 1

    # composition already exercised: compare consumed fit's school_scores.csv.
    # criterion 3 via the external interface: adjusted characteristic -> zero means
    bd_file = first / "bd" / "breakdown_fsm.csv"
    lines = [l for l in bd_file.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    mean_idx = header.index("mean_aa8")
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[mean_idx])) <= 1e-9
    report(9, f"pipeline byte-identical across runs ({compared} files); "
              "compare composed with fit output; adjusted breakdown means all zero")
