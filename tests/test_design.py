import warnings
from dataclasses import replace

import numpy as np
import pytest

from vamkit.categories import MeasureKind, ModelSpec
from vamkit.cohort import validate_cohort
from vamkit.design import build_design_matrix, design_labels
from vamkit.errors import DesignError
from vamkit.measures import compute_measure
from vamkit.ols import cluster_robust_cov
from vamkit.synthgen import GeneratorConfig, generate_population

from conftest import make_cohort, make_pupil, make_school
from dense_design import DenseDesign


def tiny_cohort(**pupil_overrides):
    pupils = [
        make_pupil("P1", "S1", **pupil_overrides),
        make_pupil("P2", "S1"),
        make_pupil("P3", "S2"),
    ]
    return make_cohort(pupils, [make_school("S1"), make_school("S2")])


# ---------------------------------------------------------------------------
# Measure -> spec mapping
# ---------------------------------------------------------------------------


def test_measure_spec_grid():
    grid = {
        MeasureKind.ATTAINMENT8: (False, False),
        MeasureKind.ADJUSTED_ATTAINMENT8: (False, True),
        MeasureKind.PROGRESS8: (True, False),
        MeasureKind.ADJUSTED_PROGRESS8: (True, True),
    }
    for kind, (prior, background) in grid.items():
        spec = kind.model_spec
        assert spec.include_prior_attainment is prior
        assert spec.include_background is background


# ---------------------------------------------------------------------------
# Shapes and labels
# ---------------------------------------------------------------------------


def test_intercept_only_shape():
    cohort = tiny_cohort()
    design = build_design_matrix(cohort, ModelSpec(False, False))
    assert design.values.shape == (3, 1)
    assert np.all(design.values == 1.0)
    assert design.column_labels == ("constant",)


def test_prior_attainment_has_34_columns(midsize_population):
    design = build_design_matrix(midsize_population.cohort, ModelSpec(True, False))
    assert design.k == 34
    assert design.column_labels[0] == "constant"
    assert design.column_labels[1] == "ks2_group_2"
    assert design.column_labels[-1] == "ks2_group_34"
    assert "ks2_group_1" not in design.column_labels


def test_background_has_45_columns(midsize_population):
    design = build_design_matrix(midsize_population.cohort, ModelSpec(False, True))
    assert design.k == 45


def test_full_model_has_78_columns(midsize_population):
    design = build_design_matrix(midsize_population.cohort, ModelSpec(True, True))
    assert design.k == 78
    assert design.column_labels == design_labels(ModelSpec(True, True))
    # block order mirrors the coefficient-table layout
    labels = design.column_labels
    assert labels.index("month_of_birth_October") == 34
    assert labels.index("gender_Female") == 45
    assert labels.index("ethnicity_White_Irish") == 46
    assert labels.index("first_language_Other") == 65
    assert labels.index("sen_SEN_support") == 66
    assert labels.index("fsm_eligible") == 68
    assert labels.index("idaci_decile_2") == 69
    assert len(labels) == 78


def test_row_encoding():
    pupils = [
        make_pupil(
            "P1",
            "S1",
            ks2_group=2,
            month_of_birth="August",
            gender="Female",
            ethnicity="Chinese",
            first_language="Other",
            sen="Statement",
            fsm=1,
            idaci_decile=10,
        ),
        make_pupil("P2", "S1", ks2_group=1, idaci_decile=1),  # all reference categories
    ]
    cohort = make_cohort(pupils, [make_school("S1")])
    with pytest.warns(UserWarning):
        design = build_design_matrix(cohort, ModelSpec(True, True))
    labels = design.column_labels
    row = design.values[0]
    expected_ones = {
        "constant",
        "ks2_group_2",
        "month_of_birth_August",
        "gender_Female",
        "ethnicity_Chinese",
        "first_language_Other",
        "sen_Statement",
        "fsm_eligible",
        "idaci_decile_10",
    }
    assert {labels[j] for j in np.flatnonzero(row == 1.0)} == expected_ones
    # reference-category pupil: only the constant
    assert np.flatnonzero(design.values[1] == 1.0).tolist() == [0]


def test_missing_ks2_fatal_for_prior_models():
    cohort = tiny_cohort(ks2_group=None)
    with pytest.raises(DesignError, match="P1"):
        build_design_matrix(cohort, ModelSpec(True, False))
    # background-only model is fine
    with pytest.warns(UserWarning):
        build_design_matrix(cohort, ModelSpec(False, True))


def test_absent_level_warns_and_keeps_zero_column():
    cohort = tiny_cohort()  # every pupil in ks2 group 20
    with pytest.warns(UserWarning, match="ks2_group_2,"):
        design = build_design_matrix(cohort, ModelSpec(True, False))
    assert design.k == 34
    col = design.column_labels.index("ks2_group_2")
    assert not design.values[:, col].any()


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def test_block_row_sums_are_binary(midsize_population):
    design = build_design_matrix(midsize_population.cohort, ModelSpec(True, True))
    labels = design.column_labels
    blocks = ("ks2_group_", "month_of_birth_", "ethnicity_", "idaci_decile_", "sen_")
    for prefix in blocks:
        cols = [j for j, lab in enumerate(labels) if lab.startswith(prefix)]
        sums = design.values[:, cols].sum(axis=1)
        assert set(np.unique(sums)) <= {0.0, 1.0}


def test_permuting_rows_permutes_design(midsize_population):
    cohort = midsize_population.cohort
    design = build_design_matrix(cohort, ModelSpec(True, True))
    rng = np.random.default_rng(3)
    perm = rng.permutation(cohort.n_pupils)
    shuffled = validate_cohort(cohort.pupil_table.take(perm), cohort.school_table)
    design2 = build_design_matrix(shuffled, ModelSpec(True, True))
    assert design2.column_labels == design.column_labels
    assert np.array_equal(design2.values, design.values[perm])


# a8 first: each design counts the pairs of blocks it adds; ap8 first: it
# counts every pair, and the other three read only stored counts
ORDERS = (tuple(MeasureKind), tuple(reversed(MeasureKind)))


def test_categorical_statistics_equal_dense(midsize_population):
    y = midsize_population.cohort.pupil_table["attainment8_total"]
    rng = np.random.default_rng(5)
    for order in ORDERS:
        cohort = replace(midsize_population.cohort)  # an empty store of level counts
        for kind in order:
            design = build_design_matrix(cohort, kind.model_spec)
            dense = DenseDesign(design.values, design.column_labels)
            # counts are exact in floating point
            assert np.array_equal(design.gram(), dense.gram()), (order, kind)
            np.testing.assert_allclose(design.xty(y), dense.xty(y), rtol=1e-12)
            beta = rng.normal(size=design.k)
            np.testing.assert_allclose(
                design.predict(beta), dense.predict(beta), rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                design.cluster_sums(y, cohort.school_index, cohort.n_schools),
                dense.cluster_sums(y, cohort.school_index, cohort.n_schools),
                rtol=1e-12,
            )


def test_replaced_cohort_counts_its_own_levels(midsize_population):
    cohort = replace(midsize_population.cohort)
    full = MeasureKind.ADJUSTED_PROGRESS8.model_spec
    before = build_design_matrix(cohort, full).gram()
    # the same pupils with four covariates' codes shuffled among them
    rng = np.random.default_rng(11)
    pupils = cohort.pupil_table
    names = ("ks2_group", "ethnicity", "sen", "fsm")
    shuffled = {name: rng.permutation(pupils[name]) for name in names}
    other = replace(cohort, pupil_table=pupils.replace(**shuffled))
    design = build_design_matrix(other, full)
    gram = design.gram()
    assert np.array_equal(gram, DenseDesign(design.values, design.column_labels).gram())
    assert not np.array_equal(gram, before)


def test_fits_do_not_depend_on_measure_order(midsize_population):
    fits = []
    for order in ORDERS:
        cohort = replace(midsize_population.cohort)
        results = {kind: compute_measure(cohort, kind) for kind in order}
        fits.append({
            kind: (r.fit, cluster_robust_cov(r.fit, r.design, cohort.school_index))
            for kind, r in results.items()
        })
    for kind in MeasureKind:
        (fit, cov), (fit2, cov2) = fits[0][kind], fits[1][kind]
        assert fit.labels == fit2.labels
        for a, b in [
            (fit.coefficients, fit2.coefficients),
            (fit.residuals, fit2.residuals),
            (fit.xtx_inverse, fit2.xtx_inverse),
            (cov.covariance, cov2.covariance),
        ]:
            assert np.array_equal(a, b), kind



@pytest.fixture(scope="module", params=[(40, 0), (300, 612)], ids=["40-0", "300-612"])
def generated(request):
    n_schools, seed = request.param
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small cohorts leave levels empty
        return generate_population(GeneratorConfig(n_schools=n_schools, seed=seed)).cohort


def designs(cohort, order=tuple(MeasureKind)):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {kind: build_design_matrix(cohort, kind.model_spec) for kind in order}


def block_sums_xty(design, y):
    """X'y summed block by block, as every y was before the cohort kept its
    outcome's level sums."""
    out = np.zeros(design.k)
    for b in design._blocks:
        out[b.columns] = b.sums(y)[b.coded]
    return out


def block_predict(design, beta):
    """X beta with one small level vector per block, as before predict read
    beta by level."""
    out = np.zeros(design.n)
    for b in design._blocks:
        per_level = np.zeros(b.levels)
        per_level[b.coded] = beta[b.columns]
        out += per_level[b.codes]
    return out


def test_outcome_xty_is_the_block_sums(generated):
    y = generated.pupil_table["attainment8_total"]
    for order in ORDERS:
        cohort = replace(generated)  # an empty level store
        for kind, design in designs(cohort, order).items():
            xty = design.xty(y)
            assert np.array_equal(xty, block_sums_xty(design, y)), (order, kind)
            dense = DenseDesign(design.values, design.column_labels).xty(y)
            np.testing.assert_allclose(xty, dense, rtol=1e-10, atol=0)


def test_outcome_xty_does_not_depend_on_measure_order(generated):
    y = generated.pupil_table["attainment8_total"]
    by_order = [
        {kind: d.xty(y) for kind, d in designs(replace(generated), order).items()}
        for order in ORDERS
    ]
    for kind in MeasureKind:
        assert np.array_equal(by_order[0][kind], by_order[1][kind]), kind


def test_other_vectors_get_their_own_xty(generated):
    cohort = replace(generated)
    y = cohort.pupil_table["attainment8_total"]
    for kind, design in designs(cohort).items():
        design.xty(y)  # the cohort's outcome sums are stored
        # doubling is exact, so its sums are exactly twice the outcome's
        assert np.array_equal(design.xty(2 * y), 2 * design.xty(y)), kind
        other = np.random.default_rng(1).normal(size=y.size)
        assert np.array_equal(design.xty(other), block_sums_xty(design, other)), kind


def test_replaced_outcome_gets_fresh_sums(generated):
    cohort = replace(generated)
    y = cohort.pupil_table["attainment8_total"]
    for design in designs(cohort).values():
        design.xty(y)
    new_y = np.random.default_rng(2).permutation(y)
    other = replace(cohort, pupil_table=cohort.pupil_table.replace(attainment8_total=new_y))
    for kind, design in designs(other).items():
        xty = design.xty(new_y)
        assert np.array_equal(xty, block_sums_xty(design, new_y)), kind
        if kind is not MeasureKind.ATTAINMENT8:  # a permutation keeps the total
            assert not np.array_equal(xty, block_sums_xty(design, y)), kind


def test_predict_by_level_equals_block_by_block(generated):
    rng = np.random.default_rng(39)
    for kind, design in designs(generated).items():
        for _ in range(3):
            beta = rng.normal(scale=10.0, size=design.k)
            assert np.array_equal(design.predict(beta), block_predict(design, beta)), kind
