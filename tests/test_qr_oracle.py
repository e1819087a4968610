"""The normal-equations core against the dense QR fit it replaced.

For all four measures on two generated cohorts, the library must keep and
drop the same columns as the QR reference (``qr_reference.py``), give
coefficients and residuals within 1e-9 points of it, and a CR1 covariance
within 1e-9 of it relative to the largest entry.
"""

import warnings

import pytest

from vamkit.categories import MeasureKind
from vamkit.synthgen import GeneratorConfig, generate_population

from qr_reference import compare

TOL = 1e-9


@pytest.mark.parametrize("n_schools, seed", [(40, 0), (300, 612)])
def test_core_matches_dense_qr(n_schools, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cohort = generate_population(GeneratorConfig(n_schools=n_schools, seed=seed)).cohort
    for kind in MeasureKind:
        d = compare(cohort, kind)
        assert d.same_labels, f"{kind.code}: kept/dropped columns differ from QR"
        assert d.beta <= TOL, f"{kind.code}: coefficients differ by {d.beta:.2e}"
        assert d.residuals <= TOL, f"{kind.code}: residuals differ by {d.residuals:.2e}"
        assert d.covariance <= TOL, f"{kind.code}: covariance differs by {d.covariance:.2e}"
