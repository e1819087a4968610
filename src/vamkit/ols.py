"""Ordinary least squares with fit statistics and school-clustered inference.

Estimation solves the normal equations X'X b = X'y by Cholesky. The design
supplies the statistics (see ``design.DesignMatrix``): X'X is a set of
integer cross-tabs and X'y a set of bincounts, so a cohort's fit never
forms its N x k indicator matrix. A left-to-right rank guard on X'X prunes
exact-collinear columns (including all-zero columns from empty category
levels) deterministically and reports them, so coefficient tables stay
reproducible rather than depending on a pseudo-inverse. The guard factors
X'X with one Cholesky, and factors the kept block again only after a drop.
That factor L of the retained columns is inverted once, and its inverse
gives both (X'X)^-1 = L^-T L^-1, which the covariance needs, and
b = L^-T (L^-1 X'y), so no separate solve runs. Residuals are y - X b.

The clustered covariance is the CR1 sandwich,

    V = c * (X'X)^-1 [ sum_g X_g' e_g e_g' X_g ] (X'X)^-1,
    c = G/(G-1) * (N-1)/(N-k),

summing over clusters g. With every observation its own cluster this reduces
to the familiar heteroskedasticity-robust form with the same correction.

:func:`coefficient_table` gives a fit's coefficient table as plain-list
columns, which the CLI writes, as they are, to ``coefficients_<code>.csv``.
Its significance flags use the normal critical value 1.959964; at national
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


def _leading_cholesky(block: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of the longest leading block LAPACK accepts,
    and whether it refused the whole block.

    LAPACK refuses a block at its first pivot <= 0. The factor of a leading
    block is the leading block of the whole factor, so the first refused
    column is found by bisection over leading blocks, with O(log k)
    factorisations.
    """
    try:
        return np.linalg.cholesky(block), False
    except np.linalg.LinAlgError:
        pass
    good, bad = 0, len(block)  # leading sizes known to factor / to be refused
    chol = np.empty((0, 0))
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            chol = np.linalg.cholesky(block[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    return chol, True


def _prune_collinear(gram: np.ndarray) -> tuple[list[int], list[int], np.ndarray]:
    """Left-to-right exact-collinearity guard on the Gram matrix.

    A column is dropped when its X'X diagonal is zero, or when its squared
    Cholesky pivot, its variance conditional on the columns kept before it,
    is at most _RANK_TOL of that diagonal. One Cholesky factors the columns
    with a nonzero diagonal; the first column that fails the rule is
    dropped and the kept block is factored again, so a full-rank design
    costs one factorisation. Deterministic: earlier columns always win.
    Returns the kept and dropped columns and the lower Cholesky factor of
    the kept block.
    """
    diag = np.diagonal(gram)
    kept = np.flatnonzero(diag > 0.0).tolist()
    dropped = np.flatnonzero(diag <= 0.0).tolist()
    while True:
        chol, refused = _leading_cholesky(gram[np.ix_(kept, kept)])
        m = len(chol)
        small = np.flatnonzero(np.diagonal(chol) ** 2 <= _RANK_TOL * diag[kept[:m]])
        if small.size:
            first = int(small[0])
        elif refused:
            first = m
        else:
            return kept, sorted(dropped), chol
        dropped.append(kept.pop(first))


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

    chol_inv = np.linalg.inv(chol)
    xtx_inv = chol_inv.T @ chol_inv
    beta = chol_inv.T @ (chol_inv @ design.xty(y)[kept])
    full = np.zeros(design.k)
    full[kept] = beta
    resid = design.predict(full)
    np.subtract(y, resid, out=resid)
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


def _dense_codes(ids: np.ndarray) -> bool:
    """Whether ``ids`` are already 0..G-1 with every value present (a
    cohort's ``school_index``), so each id is its own cluster number."""
    if ids.dtype.kind not in "iu" or not ids.size or ids.min() < 0 or ids.max() >= ids.size:
        return False
    return bool(np.bincount(ids).all())


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
    idx = ids if _dense_codes(ids) else unique_inverse(ids)[1]
    n_clusters = int(idx.max()) + 1
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


def coefficient_table(fit: FitResult, cov: ClusterCovariance) -> dict[str, list]:
    """The columns of a coefficient table, in design-column order: ``label``,
    ``estimate`` and ``se`` (None for a dropped column) and ``significant``
    at 5%, which is SE > 0 and |estimate| / SE > 1.959964.
    """
    if cov.standard_errors.shape != (fit.k_effective,):
        raise FitError("covariance does not match fit dimensions")
    kept = dict(zip(fit.labels, zip(fit.coefficients.tolist(), cov.standard_errors.tolist())))
    pairs = [kept.get(lab, (None, None)) for lab in fit.design_labels]
    return {
        "label": list(fit.design_labels),
        "estimate": [est for est, _ in pairs],
        "se": [se for _, se in pairs],
        "significant": [se is not None and se > 0.0 and abs(est) / se > Z95 for est, se in pairs],
    }
