"""Ordinary least squares with fit statistics and school-clustered inference.

Estimation solves the normal equations X'X b = X'y by Cholesky. The design
supplies the statistics (see ``design.DesignMatrix``): X'X is ``x.T @ x``
for a dense design and a set of integer cross-tabs for a categorical one,
so a cohort's fit never forms its N x k indicator matrix. A left-to-right
rank guard on X'X prunes exact-collinear columns (including all-zero
columns from empty category levels) deterministically and reports them, so
coefficient tables stay reproducible rather than depending on a
pseudo-inverse; the Cholesky factor it builds of the retained columns is
the one the solve and (X'X)^-1 use. Residuals are y - X b.

The clustered covariance is the CR1 sandwich,

    V = c * (X'X)^-1 [ sum_g X_g' e_g e_g' X_g ] (X'X)^-1,
    c = G/(G-1) * (N-1)/(N-k),

summing over clusters g. With every observation its own cluster this reduces
to the familiar heteroskedasticity-robust form with the same correction.

Significance stars use the normal critical value 1.959964; at national
sample sizes the difference from a t distribution is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import unique_inverse
from .design import DesignMatrix
from .errors import FitError

Z95 = 1.959964

# Relative Schur-complement threshold below which a column counts as exactly
# collinear with the columns retained before it.
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit: coefficients over retained columns, diagnostics.

    ``design_labels`` is the full label order of the design; ``labels`` the
    retained subset (same order) that ``coefficients`` and ``xtx_inverse``
    refer to. Coefficients and residuals are on the outcome (points) scale.
    """

    design_labels: tuple[str, ...]
    labels: tuple[str, ...]
    dropped_columns: tuple[str, ...]
    coefficients: np.ndarray
    residuals: np.ndarray
    rss: float
    tss: float
    r_squared: float
    adjusted_r_squared: float
    n: int
    k_effective: int
    xtx_inverse: np.ndarray


@dataclass(frozen=True)
class ClusterCovariance:
    """CR1 sandwich covariance for a fit; aligned with the retained labels."""

    covariance: np.ndarray
    standard_errors: np.ndarray
    n_clusters: int
    correction: float


@dataclass(frozen=True)
class CoefficientRow:
    """One row of a coefficient table; estimate/se are None for dropped columns."""

    label: str
    estimate: float | None
    se: float | None
    significant: bool


def _prune_collinear(gram: np.ndarray) -> tuple[list[int], list[int], np.ndarray]:
    """Left-to-right exact-collinearity scan on the Gram matrix.

    Walks columns in order, keeping a Cholesky factor of the retained block;
    a column whose conditional variance falls below _RANK_TOL of its own
    norm is dropped. Deterministic: earlier columns always win. Returns the
    kept and dropped columns and the lower Cholesky factor of the kept block.
    """
    k = gram.shape[0]
    kept: list[int] = []
    dropped: list[int] = []
    chol = np.zeros((k, k))
    for j in range(k):
        gjj = gram[j, j]
        if gjj <= 0.0:
            dropped.append(j)
            continue
        m = len(kept)
        if m:
            w = np.linalg.solve(chol[:m, :m], gram[kept, j])
            d = gjj - float(w @ w)
        else:
            w = np.empty(0)
            d = gjj
        if d <= _RANK_TOL * gjj:
            dropped.append(j)
            continue
        chol[m, :m] = w
        chol[m, m] = np.sqrt(d)
        kept.append(j)
    m = len(kept)
    return kept, dropped, chol[:m, :m]


def fit_ols(design: DesignMatrix, outcome) -> FitResult:
    """Fit outcome on the design by least squares.

    Collinear columns are pruned (see module docstring) and listed in
    ``dropped_columns``. Fatal if the outcome is non-finite or there are no
    more observations than retained parameters.
    """
    y = np.asarray(outcome, dtype=float)
    n = design.n
    if y.shape != (n,):
        raise FitError(f"outcome length {y.shape} does not match design rows {n}")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise FitError(f"outcome is non-finite at row {int(bad[0]) + 1}")

    kept, dropped, chol = _prune_collinear(design.gram())
    k_eff = len(kept)
    if n <= k_eff:
        raise FitError(f"cannot fit: {n} observations for {k_eff} retained parameters")

    beta = np.linalg.solve(chol.T, np.linalg.solve(chol, design.xty(y)[kept]))
    chol_inv = np.linalg.inv(chol)
    xtx_inv = chol_inv.T @ chol_inv
    full = np.zeros(design.k)
    full[kept] = beta
    resid = y - design.predict(full)
    rss = float(resid @ resid)

    # For an intercept-only design rss and tss are bitwise equal, so
    # r_squared is exactly 0.
    if kept == [0]:
        tss = rss
    else:
        centred = y - y.mean()
        tss = float(centred @ centred)

    if tss > 0.0:
        r2 = min(1.0, max(0.0, 1.0 - rss / tss))
    else:
        r2 = 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - k_eff)

    labels = design.column_labels
    return FitResult(
        design_labels=labels,
        labels=tuple(labels[j] for j in kept),
        dropped_columns=tuple(labels[j] for j in dropped),
        coefficients=beta,
        residuals=resid,
        rss=rss,
        tss=tss,
        r_squared=r2,
        adjusted_r_squared=adj_r2,
        n=n,
        k_effective=k_eff,
        xtx_inverse=xtx_inv,
    )


def cluster_robust_cov(fit: FitResult, design: DesignMatrix, cluster_ids) -> ClusterCovariance:
    """CR1 sandwich covariance of the fit, clustering on ``cluster_ids``.

    Requires the same design the fit was produced from (labels are checked)
    and at least two clusters.
    """
    if fit.design_labels != design.column_labels or design.n != fit.n:
        raise FitError("fit was not produced from this design")
    ids = np.asarray(cluster_ids)
    if ids.shape != (fit.n,):
        raise FitError(f"expected {fit.n} cluster ids, got {ids.size}")
    codes, idx = unique_inverse(ids)
    n_clusters = codes.size
    if n_clusters < 2:
        raise FitError("clustered inference undefined: fewer than 2 clusters")

    kept = [design.column_labels.index(lab) for lab in fit.labels]
    sums = design.cluster_sums(fit.residuals, idx, n_clusters)[:, kept]
    meat = sums.T @ sums
    k_eff = fit.k_effective

    n = fit.n
    correction = (n_clusters / (n_clusters - 1)) * ((n - 1) / (n - k_eff))
    cov = correction * (fit.xtx_inverse @ meat @ fit.xtx_inverse)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return ClusterCovariance(
        covariance=cov, standard_errors=se, n_clusters=n_clusters, correction=correction
    )


def coefficient_table(fit: FitResult, cov: ClusterCovariance) -> list[CoefficientRow]:
    """Rows (label, estimate, SE, significant at 5%) in design-column order.

    Dropped columns appear with blank estimates. Significance is
    |estimate| / SE > 1.959964.
    """
    if cov.standard_errors.shape != (fit.k_effective,):
        raise FitError("covariance does not match fit dimensions")
    by_label = {
        lab: (float(fit.coefficients[i]), float(cov.standard_errors[i]))
        for i, lab in enumerate(fit.labels)
    }
    rows = []
    for lab in fit.design_labels:
        if lab in by_label:
            est, se = by_label[lab]
            significant = se > 0.0 and abs(est) / se > Z95
            rows.append(CoefficientRow(lab, est, se, significant))
        else:
            rows.append(CoefficientRow(lab, None, None, False))
    return rows
