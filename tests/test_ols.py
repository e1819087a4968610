import collections
import dataclasses

import numpy as np
import pytest

from vamkit.categories import MeasureKind
from vamkit.design import build_design_matrix
from vamkit.errors import FitError
from vamkit.ols import (
    _RANK_TOL,
    Z95,
    ClusterCovariance,
    _prune_collinear,
    cluster_robust_cov,
    coefficient_table,
    fit_ols,
)
from vamkit.synthgen import GeneratorConfig, generate_population

from dense_design import DenseDesign
from qr_reference import prune_collinear


def random_design(rng, n, k):
    """Random instance with a leading constant column."""
    x = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k - 1)])
    labels = ["constant"] + [f"x{j}" for j in range(1, k)]
    return DenseDesign(x, labels)


def normal_equations_oracle(x, y):
    """Independent brute-force solve of X'X b = X'y with explicit loops."""
    n, k = x.shape
    xtx = np.zeros((k, k))
    xty = np.zeros(k)
    for i in range(n):
        for a in range(k):
            xty[a] += x[i, a] * y[i]
            for b in range(k):
                xtx[a, b] += x[i, a] * x[i, b]
    return np.linalg.solve(xtx, xty)


def cr1_oracle(x, resid, clusters):
    """Hand-rolled CR1 sandwich, fully independent of the library path."""
    n, k = x.shape
    xtx_inv = np.linalg.inv(x.T @ x)
    meat = np.zeros((k, k))
    for g in sorted(set(clusters)):
        rows = [i for i, c in enumerate(clusters) if c == g]
        h = np.zeros(k)
        for i in rows:
            h += x[i] * resid[i]
        meat += np.outer(h, h)
    n_clusters = len(set(clusters))
    c = (n_clusters / (n_clusters - 1)) * ((n - 1) / (n - k))
    return c * xtx_inv @ meat @ xtx_inv


# ---------------------------------------------------------------------------
# fit_ols
# ---------------------------------------------------------------------------


def test_intercept_only_is_mean():
    design = DenseDesign(np.ones((3, 1)), ["constant"])
    fit = fit_ols(design, [2.0, 4.0, 6.0])
    assert fit.coefficients[0] == pytest.approx(4.0, abs=1e-12)
    assert fit.residuals == pytest.approx([-2.0, 0.0, 2.0], abs=1e-12)
    assert fit.r_squared == 0.0
    assert fit.adjusted_r_squared == 0.0


def test_intercept_recovers_any_sample_mean():
    rng = np.random.default_rng(0)
    y = rng.normal(size=200)
    y = y - y.mean() + 51.02
    design = DenseDesign(np.ones((200, 1)), ["constant"])
    fit = fit_ols(design, y)
    assert fit.coefficients[0] == pytest.approx(51.02, abs=1e-9)
    assert fit.adjusted_r_squared == 0.0


def test_two_group_dummy_by_hand():
    x = np.array([[1, 0], [1, 0], [1, 1], [1, 1]], dtype=float)
    design = DenseDesign(x, ["constant", "group_B"])
    fit = fit_ols(design, [1.0, 3.0, 10.0, 14.0])
    assert fit.coefficients == pytest.approx([2.0, 10.0], abs=1e-12)
    assert fit.residuals == pytest.approx([-1.0, 1.0, -2.0, 2.0], abs=1e-12)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(8, 51))
        k = int(rng.integers(1, 7))
        design = random_design(rng, n, k)
        y = rng.normal(size=n)
        fit = fit_ols(design, y)
        oracle = normal_equations_oracle(design.values, y)
        assert fit.coefficients == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_residual_invariants():
    rng = np.random.default_rng(9)
    design = random_design(rng, 120, 5)
    y = rng.normal(loc=50, scale=12, size=120)
    fit = fit_ols(design, y)
    assert abs(fit.residuals.mean()) <= 1e-9 * y.std()
    for j in range(design.k):
        inner = abs(float(fit.residuals @ design.values[:, j]))
        assert inner <= 1e-7 * design.n * max(1.0, np.abs(y).max())
    assert 0.0 <= fit.r_squared <= 1.0
    expected_adj = 1 - (1 - fit.r_squared) * (fit.n - 1) / (fit.n - fit.k_effective)
    assert fit.adjusted_r_squared == pytest.approx(expected_adj, abs=1e-14)


def test_duplicate_column_dropped_fit_unchanged():
    rng = np.random.default_rng(4)
    base = random_design(rng, 60, 3)
    y = rng.normal(size=60)
    fit_base = fit_ols(base, y)
    dup = DenseDesign(
        np.column_stack([base.values, base.values[:, 1]]),
        list(base.column_labels) + ["x1_copy"],
    )
    fit_dup = fit_ols(dup, y)
    assert fit_dup.dropped_columns == ("x1_copy",)
    assert fit_dup.k_effective == 3
    assert fit_dup.residuals == pytest.approx(fit_base.residuals, abs=1e-10)


def test_zero_column_dropped():
    x = np.column_stack([np.ones(10), np.zeros(10), np.arange(10.0)])
    design = DenseDesign(x, ["constant", "empty_level", "x"])
    fit = fit_ols(design, np.arange(10.0))
    assert fit.dropped_columns == ("empty_level",)
    assert fit.labels == ("constant", "x")


def test_exact_linear_combination_dropped_left_to_right():
    rng = np.random.default_rng(17)
    a = rng.normal(size=40)
    b = rng.normal(size=40)
    x = np.column_stack([np.ones(40), a, b, 2.0 * a - b])
    design = DenseDesign(x, ["constant", "a", "b", "combo"])
    fit = fit_ols(design, rng.normal(size=40))
    assert fit.dropped_columns == ("combo",)


def test_too_few_rows_fatal():
    design = DenseDesign(np.ones((2, 1)), ["constant"])
    design2 = DenseDesign(np.column_stack([np.ones(2), [0.0, 1.0]]), ["constant", "x"])
    with pytest.raises(FitError):
        fit_ols(design2, [1.0, 2.0])
    fit_ols(design, [1.0, 2.0])  # 2 rows, 1 param is fine


def test_nonfinite_outcome_fatal():
    design = DenseDesign(np.ones((3, 1)), ["constant"])
    with pytest.raises(FitError, match="row 2"):
        fit_ols(design, [1.0, np.nan, 2.0])


def test_rss_nonincreasing_in_nested_models():
    rng = np.random.default_rng(33)
    n = 90
    small = random_design(rng, n, 3)
    extra = rng.normal(size=(n, 2))
    big = DenseDesign(
        np.column_stack([small.values, extra]),
        list(small.column_labels) + ["z1", "z2"],
    )
    y = rng.normal(size=n)
    assert fit_ols(big, y).rss <= fit_ols(small, y).rss + 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(77)
    n = 200
    design = random_design(rng, n, 4)
    y = rng.normal(size=n)
    clusters = [f"C{int(c)}" for c in rng.integers(0, 12, size=n)]
    fit = fit_ols(design, y)
    cov = cluster_robust_cov(fit, design, clusters)

    perm = rng.permutation(n)
    design_p = DenseDesign(design.values[perm], design.column_labels)
    fit_p = fit_ols(design_p, y[perm])
    cov_p = cluster_robust_cov(fit_p, design_p, [clusters[i] for i in perm])
    assert fit_p.coefficients == pytest.approx(fit.coefficients, rel=1e-10, abs=1e-13)
    assert cov_p.standard_errors == pytest.approx(cov.standard_errors, rel=1e-10, abs=1e-13)


# ---------------------------------------------------------------------------
# rank guard
# ---------------------------------------------------------------------------

PLANTS = ("zero", "duplicate", "combination", "above", "below")


def plant(kind, sources, before, rng):
    """A column to place after the columns ``before``, made from the dummy
    columns among them (``sources``): collinear with them, or (above/below)
    with a Schur pivot 1.05 or 0.95 times _RANK_TOL of its own X'X entry."""
    n, m = sources.shape
    if kind == "zero":
        return np.zeros(n)
    if kind == "duplicate":
        return sources[:, rng.integers(1, m)].copy()
    if kind == "combination":
        return sources[:, rng.choice(np.arange(1, m), 3, replace=False)] @ [1.0, -2.0, 3.0]
    ratio = {"above": 1.05, "below": 0.95}[kind]
    base = sources[:, rng.integers(0, m)]
    q = np.linalg.qr(before)[0]
    u = rng.standard_normal(n)
    u -= q @ (q.T @ u)
    u /= np.linalg.norm(u)
    eps2 = ratio * _RANK_TOL * (base @ base) / (1.0 - ratio * _RANK_TOL)
    return base + np.sqrt(eps2) * u


def planted_gram(seed, plants):
    """X'X of a random dummy design (a constant and four coded covariates)
    with each kind of ``plants`` at a random position, and the planted
    columns by kind."""
    rng = np.random.default_rng(seed)
    n = 300
    dummies = [np.ones(n)]
    for levels in (4, 5, 3, 6):
        codes = rng.integers(0, levels, n)
        dummies += [(codes == c).astype(float) for c in range(1, levels)]
    at = rng.choice(np.arange(4, len(dummies)), len(plants), replace=False)
    slots = dict(zip(at.tolist(), rng.permutation(plants)))
    columns, where = [], {}
    for j, dummy in enumerate(dummies):
        if j in slots:
            where[slots[j]] = len(columns)
            columns.append(plant(slots[j], np.column_stack(dummies[:j]), np.column_stack(columns), rng))
        columns.append(dummy)
    x = np.column_stack(columns)
    return x.T @ x, where


@pytest.mark.parametrize(
    "plants",
    [
        PLANTS,  # exact collinearity: LAPACK refuses the block at a pivot <= 0
        ("zero", "above", "below"),  # LAPACK accepts; the rule drops "below"
    ],
)
def test_rank_guard_matches_column_by_column_oracle(plants):
    refused = []
    for seed in range(20):
        gram, where = planted_gram(seed, plants)
        kept, dropped, chol = _prune_collinear(gram)
        ref_kept, ref_dropped, ref_chol = prune_collinear(gram)
        assert (kept, dropped) == (ref_kept, ref_dropped), seed
        assert dropped == sorted(where[k] for k in plants if k != "above"), seed
        # The kept "above" column has a pivot of ~1e-5 of its norm, so the
        # factor's later rows carry ~1e-7 relative rounding: compare the
        # factors up to it, and the whole factor by L L' = X'X.
        lead = kept.index(where["above"])
        scale = np.max(np.abs(ref_chol))
        assert np.max(np.abs(chol - ref_chol)[:lead, :lead]) <= 1e-12 * scale, seed
        block = gram[np.ix_(kept, kept)]
        assert np.max(np.abs(chol @ chol.T - block)) <= 1e-12 * np.max(block), seed
        positive = np.flatnonzero(np.diagonal(gram) > 0.0)
        try:
            np.linalg.cholesky(gram[np.ix_(positive, positive)])
            refused.append(False)
        except np.linalg.LinAlgError:
            refused.append(True)
    assert any(refused) == ("duplicate" in plants)


def test_full_rank_guard_factors_once(monkeypatch):
    cohort = generate_population(GeneratorConfig(seed=612)).cohort
    gram = build_design_matrix(cohort, MeasureKind.ADJUSTED_PROGRESS8.model_spec).gram()
    calls = collections.Counter()

    def counted(name):
        call = getattr(np.linalg, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)

        return counting

    for name in ("cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    kept, dropped, _ = _prune_collinear(gram)
    assert (len(kept), dropped) == (78, [])
    assert calls == {"cholesky": 1}


# ---------------------------------------------------------------------------
# cluster_robust_cov
# ---------------------------------------------------------------------------


def test_two_cluster_hand_example():
    # intercept-only, residual sums (+4, -4), N=4, k=1:
    # V = c * (4^2 + 4^2) / 16 with c = 2 * 3/3 = 2  =>  V = 4
    design = DenseDesign(np.ones((4, 1)), ["constant"])
    y = np.array([3.0, 1.0, -1.0, -3.0])  # mean 0, residuals = y
    fit = fit_ols(design, y)
    assert fit.residuals == pytest.approx(y, abs=1e-12)
    cov = cluster_robust_cov(fit, design, ["A", "A", "B", "B"])
    assert cov.correction == pytest.approx(2.0)
    assert cov.covariance[0, 0] == pytest.approx(4.0, abs=1e-10)
    assert cov.standard_errors[0] == pytest.approx(2.0, abs=1e-10)


def test_singleton_clusters_reduce_to_hc1():
    rng = np.random.default_rng(8)
    n = 50
    design = random_design(rng, n, 3)
    y = rng.normal(size=n)
    fit = fit_ols(design, y)
    cov = cluster_robust_cov(fit, design, [f"c{i}" for i in range(n)])
    # independent HC1-style evaluation with the same correction factor
    x = design.values
    xtx_inv = np.linalg.inv(x.T @ x)
    meat = (x * fit.residuals[:, None]).T @ (x * fit.residuals[:, None])
    c = (n / (n - 1)) * ((n - 1) / (n - 3))
    expected = c * xtx_inv @ meat @ xtx_inv
    assert cov.covariance == pytest.approx(expected, rel=1e-10)


def test_matches_cr1_oracle_random():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(10, 40))
        k = int(rng.integers(1, 5))
        n_clusters = int(rng.integers(2, 7))
        design = random_design(rng, n, k)
        y = rng.normal(size=n)
        clusters = [int(c) for c in rng.integers(0, n_clusters, size=n)]
        if len(set(clusters)) < 2:
            continue
        fit = fit_ols(design, y)
        cov = cluster_robust_cov(fit, design, clusters)
        expected = cr1_oracle(design.values[:, : fit.k_effective], fit.residuals, clusters)
        assert cov.covariance == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_doubling_outcome_quadruples_covariance():
    rng = np.random.default_rng(55)
    design = random_design(rng, 40, 3)
    y = rng.normal(size=40)
    clusters = [f"c{int(i)}" for i in rng.integers(0, 5, size=40)]
    cov1 = cluster_robust_cov(fit_ols(design, y), design, clusters)
    cov2 = cluster_robust_cov(fit_ols(design, 2.0 * y), design, clusters)
    assert cov2.covariance == pytest.approx(4.0 * cov1.covariance, rel=1e-10)


def test_integer_cluster_ids_cluster_as_their_strings():
    # dense codes 0..G-1 (a cohort's school_index) are used as they are;
    # codes with a gap, offset codes and strings are renumbered first
    rng = np.random.default_rng(19)
    design = random_design(rng, 60, 3)
    fit = fit_ols(design, rng.normal(size=60))
    codes = rng.permutation(np.arange(60) % 7)
    expected = cluster_robust_cov(fit, design, [f"c{c}" for c in codes])
    for ids in (codes, codes.astype(np.uint8), codes * 3, codes + 60, codes - 3):
        cov = cluster_robust_cov(fit, design, ids)
        assert cov.n_clusters == 7
        assert np.array_equal(cov.covariance, expected.covariance)


def test_single_cluster_fatal():
    design = DenseDesign(np.ones((4, 1)), ["constant"])
    fit = fit_ols(design, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(FitError, match="clustered inference undefined"):
        cluster_robust_cov(fit, design, ["A", "A", "A", "A"])


def test_cov_requires_matching_design():
    design = DenseDesign(np.ones((4, 1)), ["constant"])
    other = DenseDesign(np.ones((4, 1)), ["different"])
    fit = fit_ols(design, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(FitError, match="not produced from this design"):
        cluster_robust_cov(fit, other, ["A", "A", "B", "B"])


# ---------------------------------------------------------------------------
# coefficient_table
# ---------------------------------------------------------------------------


def test_significance_flags_from_published_values():
    # 2.95 with SE 0.10 is starred; 0.17 with SE 0.16 is not
    assert abs(2.95) / 0.10 > Z95
    assert abs(0.17) / 0.16 <= Z95
    rng = np.random.default_rng(2)
    design = random_design(rng, 30, 3)
    fit = fit_ols(design, rng.normal(size=30))
    cov = ClusterCovariance(
        covariance=np.diag([0.10**2, 0.16**2, 1.0]),
        standard_errors=np.array([0.10, 0.16, 1.0]),
        n_clusters=5,
        correction=1.0,
    )
    fit = dataclasses.replace(fit, coefficients=np.array([2.95, 0.17, 0.0]))
    table = coefficient_table(fit, cov)
    assert table["significant"] == [True, False, False]


def test_dropped_columns_blank_in_table():
    rng = np.random.default_rng(14)
    base = random_design(rng, 50, 2)
    design = DenseDesign(
        np.column_stack([base.values[:, 0], np.zeros(50), base.values[:, 1]]),
        ["constant", "empty", "x1"],
    )
    y = rng.normal(size=50)
    fit = fit_ols(design, y)
    cov = cluster_robust_cov(fit, design, [f"c{i % 6}" for i in range(50)])
    table = coefficient_table(fit, cov)
    assert table["label"] == ["constant", "empty", "x1"]
    assert table["estimate"][1] is None and table["se"][1] is None
    assert table["significant"][1] is False
    assert table["estimate"][0] is not None
