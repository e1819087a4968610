import numpy as np
import pytest

from vamkit.cohort import validate_cohort
from vamkit.design import (
    DesignError,
    DesignMatrix,
    MeasureKind,
    ModelSpec,
    band_ks2,
    build_design_matrix,
    design_labels,
)

from conftest import make_cohort, make_pupil, make_school


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
    assert design.reference_categories == {"ks2_group": "1"}


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


def test_categorical_statistics_equal_dense(midsize_population):
    cohort = midsize_population.cohort
    y = cohort.pupil_table["attainment8_total"]
    rng = np.random.default_rng(5)
    for kind in MeasureKind:
        design = build_design_matrix(cohort, kind.model_spec)
        dense = DesignMatrix(values=design.values, column_labels=design.column_labels)
        # counts are exact in floating point
        assert np.array_equal(design.gram(), dense.gram())
        np.testing.assert_allclose(design.xty(y), dense.xty(y), rtol=1e-12)
        beta = rng.normal(size=design.k)
        np.testing.assert_allclose(design.predict(beta), dense.predict(beta), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            design.cluster_sums(y, cohort.school_index, cohort.n_schools),
            dense.cluster_sums(y, cohort.school_index, cohort.n_schools),
            rtol=1e-12,
        )


# ---------------------------------------------------------------------------
# band_ks2
# ---------------------------------------------------------------------------


def test_band_one_per_bin():
    assert band_ks2(list(range(1, 35)), 34) == list(range(1, 35))


def test_band_degenerate_all_equal():
    with pytest.warns(UserWarning, match="group 1"):
        assert band_ks2([5.0] * 7, 34) == [1] * 7


def test_band_median_split():
    assert band_ks2([1.0, 1.0, 2.0, 2.0], 2) == [1, 1, 2, 2]


def test_band_output_in_input_order():
    assert band_ks2([10.0, -1.0, 5.0], 3) == [3, 1, 2]


def test_band_monotone_in_score():
    rng = np.random.default_rng(11)
    for _ in range(25):
        scores = rng.normal(size=rng.integers(2, 200)).tolist()
        n_groups = int(rng.integers(2, 35))
        groups = band_ks2(scores, n_groups)
        assert all(1 <= g <= n_groups for g in groups)
        order = np.argsort(scores, kind="stable")
        banded = np.asarray(groups)[order]
        assert np.all(np.diff(banded) >= 0)
        # equal scores always share a group
        by_score = {}
        for s, g in zip(scores, groups):
            by_score.setdefault(s, set()).add(g)
        assert all(len(gs) == 1 for gs in by_score.values())


def test_band_input_validation():
    with pytest.raises(DesignError):
        band_ks2([], 4)
    with pytest.raises(DesignError):
        band_ks2([1.0, float("nan")], 4)
    with pytest.raises(DesignError):
        band_ks2([1.0, 2.0], 1)
