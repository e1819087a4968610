"""A dense N x k design, kept as a test oracle.

``DenseDesign`` gives the statistics ``fit_ols`` and ``cluster_robust_cov``
read from a design (``n``, ``k``, ``column_labels``, ``gram``, ``xty``,
``predict`` and ``cluster_sums``) by plain matrix products over the array.
Tests use it to fit designs that are not dummy-coded, and to check the
categorical ``DesignMatrix`` statistics against the same products over its
``values``.
"""

from __future__ import annotations

import numpy as np


class DenseDesign:
    def __init__(self, values, column_labels):
        self.values = np.asarray(values, dtype=float)
        self.column_labels = tuple(column_labels)
        self.n, self.k = self.values.shape

    def gram(self) -> np.ndarray:
        return self.values.T @ self.values

    def xty(self, y: np.ndarray) -> np.ndarray:
        return self.values.T @ y

    def predict(self, beta: np.ndarray) -> np.ndarray:
        return self.values @ beta

    def cluster_sums(self, e: np.ndarray, cluster: np.ndarray, n_clusters: int) -> np.ndarray:
        """G x k sums X_g'e_g, one bincount per column."""
        out = np.zeros((n_clusters, self.k))
        for j in range(self.k):
            out[:, j] = np.bincount(cluster, weights=self.values[:, j] * e, minlength=n_clusters)
        return out
