"""Dense QR least squares and CR1 covariance, kept as a test oracle.

This is the estimator vamkit used before its normal-equations core: the
left-to-right rank guard on X'X, a reduced QR of the retained columns of
the dense N x k design, a triangular solve, (X'X)^-1 from the R factor, and
the CR1 meat from the N x k products X * e. ``test_qr_oracle.py`` compares
the library against it on small cohorts. Its ``prune_collinear`` is the
column-by-column form of the library's rank guard, which factors X'X with
one Cholesky; it is kept as that guard's oracle (``test_ols.py``). Run as
a script, it makes the same comparison on a generated cohort of any size
and prints the differences:

    PYTHONPATH=src python tests/qr_reference.py --schools 3098 --seed 1
"""

from __future__ import annotations

import argparse
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from vamkit.categories import MeasureKind
from vamkit.design import build_design_matrix
from vamkit.ols import cluster_robust_cov, fit_ols

RANK_TOL = 1e-10


def prune_collinear(gram):
    """Kept and dropped column indices and the lower Cholesky factor of the
    kept block, scanning left to right.

    Each column's Schur pivot comes from one triangular solve against the
    factor of the columns kept before it.
    """
    k = gram.shape[0]
    kept, dropped = [], []
    chol = np.zeros((k, k))
    for j in range(k):
        gjj = gram[j, j]
        if gjj <= 0.0:
            dropped.append(j)
            continue
        m = len(kept)
        if m:
            w = solve_triangular(chol[:m, :m], gram[kept, j], lower=True)
            d = gjj - float(w @ w)
        else:
            w = np.empty(0)
            d = gjj
        if d <= RANK_TOL * gjj:
            dropped.append(j)
            continue
        chol[m, :m] = w
        chol[m, m] = np.sqrt(d)
        kept.append(j)
    m = len(kept)
    return kept, dropped, chol[:m, :m]


def qr_fit_and_cr1(x, y, cluster_index):
    """(kept, dropped, beta, residuals, CR1 covariance) by reduced QR."""
    kept, dropped, _ = prune_collinear(x.T @ x)
    xs = x[:, kept]
    q, r = np.linalg.qr(xs)
    beta = solve_triangular(r, q.T @ y, lower=False)
    resid = y - xs @ beta
    r_inv = solve_triangular(r, np.eye(len(kept)), lower=False)
    xtx_inv = r_inv @ r_inv.T

    n, k = xs.shape
    n_clusters = int(cluster_index.max()) + 1
    xe = xs * resid[:, None]
    sums = np.empty((n_clusters, k))
    for j in range(k):
        sums[:, j] = np.bincount(cluster_index, weights=xe[:, j], minlength=n_clusters)
    correction = (n_clusters / (n_clusters - 1)) * ((n - 1) / (n - k))
    cov = correction * (xtx_inv @ (sums.T @ sums) @ xtx_inv)
    return kept, dropped, beta, resid, cov


@dataclass(frozen=True)
class Difference:
    """How far the library's fit of one measure is from the QR reference."""

    same_labels: bool
    beta: float
    residuals: float
    covariance: float  # relative to the reference's largest |entry|


def compare(cohort, kind: MeasureKind) -> Difference:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # absent category levels warn by design
        design = build_design_matrix(cohort, kind.model_spec)
    y = cohort.pupil_table["attainment8_total"]
    fit = fit_ols(design, y)
    cov = cluster_robust_cov(fit, design, cohort.school_index)

    kept, dropped, beta, resid, ref_cov = qr_fit_and_cr1(design.values, y, cohort.school_index)
    labels = design.column_labels
    same = fit.labels == tuple(labels[j] for j in kept) and fit.dropped_columns == tuple(
        labels[j] for j in dropped
    )
    if not same:
        return Difference(False, np.inf, np.inf, np.inf)
    return Difference(
        True,
        float(np.max(np.abs(fit.coefficients - beta))),
        float(np.max(np.abs(fit.residuals - resid))),
        float(np.max(np.abs(cov.covariance - ref_cov)) / np.max(np.abs(ref_cov))),
    )


def main() -> None:
    from vamkit.synthgen import GeneratorConfig, generate_population

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schools", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cohort = generate_population(GeneratorConfig(n_schools=args.schools, seed=args.seed)).cohort
    print(f"{cohort.n_pupils} pupils in {cohort.n_schools} schools")
    for kind in MeasureKind:
        d = compare(cohort, kind)
        print(
            f"{kind.code}: same labels {d.same_labels}, max |d beta| {d.beta:.2e}, "
            f"max |d residual| {d.residuals:.2e}, covariance {d.covariance:.2e} relative"
        )


if __name__ == "__main__":
    main()
