import numpy as np
import pytest

from vamkit.categories import FIELD, MeasureKind, ModelSpec
from vamkit.design import build_design_matrix, design_labels
from vamkit.errors import AnalysisError, GeneratorError
from vamkit.measures import compute_measure
from vamkit.ols import fit_ols
from vamkit.synthgen import (
    DEFAULT_COEFFICIENTS,
    FSM_ELIGIBLE_SHARE,
    NATIONAL_COUNTS,
    GeneratorConfig,
    _codes,
    _cut_points,
    _ids,
    _normal_cdf,
    dgp_from_coefficients,
    generate_population,
    serialize_truth,
    write_population_csv,
)

SMALL = dict(n_schools=40, school_size_range=(30, 60))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_seed_identical_bytes():
    a = write_population_csv(generate_population(GeneratorConfig(seed=99, **SMALL)))
    b = write_population_csv(generate_population(GeneratorConfig(seed=99, **SMALL)))
    assert set(a) == {"pupils.csv", "schools.csv", "truth.csv"}
    for name in a:
        assert a[name] == b[name]


def test_different_seed_differs():
    with pytest.warns(UserWarning, match="absent from cohort"):
        a = write_population_csv(generate_population(GeneratorConfig(seed=1, **SMALL)))
        b = write_population_csv(generate_population(GeneratorConfig(seed=2, **SMALL)))
    assert a["pupils.csv"] != b["pupils.csv"]


@pytest.mark.parametrize("n", [1, 9, 10, 99999, 999999, 1000000])
@pytest.mark.parametrize("prefix, width", [("P", 6), ("S", 4)])
def test_ids_match_zero_filled_strings(n, prefix, width):
    # the ids as np.char built them: the same values and dtype
    digits = max(width, len(str(n)))
    want = np.char.add(prefix, np.char.zfill(np.arange(1, n + 1).astype(str), digits))
    got = _ids(prefix, n, width)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# noiseless identifiability
# ---------------------------------------------------------------------------


def test_noiseless_population_recovers_truth_exactly():
    config = GeneratorConfig(
        n_schools=60,
        school_size_range=(80, 120),
        true_school_effect_sd=0.0,
        noise_sd=0.0,
        intake_gradient=0.0,
        seed=31,
    )
    pop = generate_population(config)
    assert pop.n_clipped == 0
    # outcome equals the linear predictor row by row
    design = build_design_matrix(
        pop.cohort, ModelSpec(include_prior_attainment=True, include_background=True)
    )
    beta = np.array([DEFAULT_COEFFICIENTS[lab] for lab in design.column_labels])
    y = pop.cohort.pupil_table["attainment8_total"]
    assert np.max(np.abs(y - design.values @ beta)) <= 1e-9
    # refitting the fully adjusted model recovers every retained coefficient
    fit = fit_ols(design, y)
    for label, estimate in zip(fit.labels, fit.coefficients):
        assert estimate == pytest.approx(DEFAULT_COEFFICIENTS[label], abs=1e-7)
    assert np.max(np.abs(fit.residuals)) <= 1e-7
    # its pupil scores are rounding noise, so the measure has no school CIs
    with pytest.raises(AnalysisError, match="national_sd must be positive, got 0.0"):
        compute_measure(pop.cohort, MeasureKind.ADJUSTED_PROGRESS8)


def test_true_effects_and_structure(midsize_population):
    cohort = midsize_population.cohort
    truth = midsize_population.true_school_effects
    assert set(truth) == set(cohort.school_table["school_id"].tolist())
    # draw mean is near zero relative to its own SD
    values = np.array(list(truth.values()))
    assert abs(values.mean()) <= 4 * values.std(ddof=1) / np.sqrt(values.size)


# ---------------------------------------------------------------------------
# marginals and gradient structure
# ---------------------------------------------------------------------------


def test_marginals_match_targets():
    pop = generate_population(GeneratorConfig(n_schools=120, school_size_range=(150, 250), seed=5))
    pupils = pop.cohort.pupil_table
    n = len(pupils)
    fsm_share = pupils["fsm"].sum() / n
    assert fsm_share == pytest.approx(FSM_ELIGIBLE_SHARE, abs=0.02)
    deciles = pupils["idaci_decile"] + 1  # an INT column holds value - 1
    for d in range(1, 11):
        assert np.mean(deciles == d) == pytest.approx(0.1, abs=0.02)
    # KS2 marginal follows the national (bell-shaped) shares: middle groups common
    groups = pupils["ks2_group"] + 1
    assert np.mean(groups == 23) > 3 * np.mean(groups == 1)
    sen_share = np.mean(pupils["sen"] != FIELD["sen"].encode("None"))
    assert sen_share == pytest.approx(0.132, abs=0.02)


def test_normal_cut_points_match_scipy():
    # the generator's codes and FSM probabilities were scipy.special's
    # ndtr/ndtri; the stdlib forms must give the same cohorts
    from scipy.special import ndtr, ndtri

    decile_cuts, ks2_cuts, fsm_quantile = _cut_points()
    assert fsm_quantile == pytest.approx(ndtri(FSM_ELIGIBLE_SHARE), rel=1e-15)
    z = np.random.default_rng(2016).standard_normal(10**6)
    deciles = np.clip(np.floor(ndtr(z) * 10).astype(int), 0, 9)
    assert np.array_equal(_codes(decile_cuts, z), deciles)
    counts = np.asarray(NATIONAL_COUNTS["ks2_group"], dtype=float)
    boundaries = np.cumsum(counts / counts.sum())[:-1]
    assert np.array_equal(_codes(ks2_cuts, z), np.searchsorted(boundaries, ndtr(z), side="right"))

    intercept = ndtri(FSM_ELIGIBLE_SHARE) * np.sqrt(2.0)
    for latent in (intercept + z, 4.0 * z):  # the generator's range, then deep tails
        np.testing.assert_allclose(_normal_cdf(latent), ndtr(latent), rtol=1e-13, atol=0)


def school_means(cohort, column):
    """Each school's mean of a pupil column, in school_table order."""
    index = cohort.school_index
    return np.bincount(index, weights=cohort.pupil_table[column]) / np.bincount(index)


def test_gradient_links_deprivation_fsm_and_ks2(midsize_population):
    cohort = midsize_population.cohort
    decile = cohort.school_table["school_idaci_decile"] + 1
    fsm_rate = school_means(cohort, "fsm")
    mean_ks2 = school_means(cohort, "ks2_group") + 1
    assert np.corrcoef(decile, fsm_rate)[0, 1] > 0.5
    assert np.corrcoef(decile, mean_ks2)[0, 1] < -0.3


def test_raw_attainment_tracks_intake(midsize_population):
    cohort = midsize_population.cohort
    result = compute_measure(cohort, MeasureKind.ATTAINMENT8)
    score = {s.school_id: s.score for s in result.school_scores}
    ids = cohort.school_table["school_id"].tolist()
    assert ids == sorted(score)
    scores = np.array([score[i] for i in ids])
    mean_ks2 = school_means(cohort, "ks2_group") + 1
    assert np.corrcoef(scores, mean_ks2)[0, 1] > 0.5


def test_no_gradient_breaks_the_link():
    with pytest.warns(UserWarning, match="absent from cohort"):
        pop = generate_population(
            GeneratorConfig(intake_gradient=0.0, seed=77, **SMALL)
        )
    cohort = pop.cohort
    decile = cohort.school_table["school_idaci_decile"] + 1
    fsm_rate = school_means(cohort, "fsm")
    assert abs(np.corrcoef(decile, fsm_rate)[0, 1]) < 0.35


def test_clipping_below_one_percent_default():
    with pytest.warns(UserWarning, match="absent from cohort"):
        pop = generate_population(GeneratorConfig(seed=41, **SMALL))
    assert pop.n_clipped / pop.cohort.n_pupils < 0.01


# ---------------------------------------------------------------------------
# dgp_from_coefficients
# ---------------------------------------------------------------------------


def test_full_table_has_78_parameters():
    fragment = dgp_from_coefficients(DEFAULT_COEFFICIENTS)
    table = fragment["coefficient_set"]
    assert len(table) == 78
    assert set(table) == set(design_labels(ModelSpec(True, True)))
    assert table["constant"] == 19.74
    assert table["gender_Female"] == 2.44
    assert table["fsm_eligible"] == -4.01


def test_empty_table_is_all_zero_with_warning():
    with pytest.warns(UserWarning, match="defaulting to 0"):
        fragment = dgp_from_coefficients({})
    assert all(v == 0.0 for v in fragment["coefficient_set"].values())


def test_misspelled_label_fatal():
    with pytest.raises(GeneratorError, match="fsm_eligble"):
        dgp_from_coefficients({"fsm_eligble": -4.0})


def test_partial_table_generation():
    with pytest.warns(UserWarning):
        pop = generate_population(
            GeneratorConfig(coefficient_set={"constant": 45.0}, seed=3, **SMALL)
        )
    y = pop.cohort.pupil_table["attainment8_total"]
    assert abs(y.mean() - 45.0) < 2.0


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        dict(school_size_range=(50, 20)),
        dict(school_size_range=(0, 20)),
        dict(n_schools=0),
        dict(true_school_effect_sd=-1.0),
        dict(noise_sd=-0.5),
        dict(intake_gradient=1.5),
        dict(intake_gradient=-0.1),
    ],
)
def test_invalid_config_fatal(overrides):
    with pytest.raises(GeneratorError):
        generate_population(GeneratorConfig(seed=1, **overrides))


def test_truth_csv_layout(midsize_population):
    data = serialize_truth(midsize_population).decode()
    lines = data.strip().split("\n")
    assert lines[0] == "school_id,true_effect_points"
    assert len(lines) == midsize_population.cohort.n_schools + 1
    sid, value = lines[1].split(",")
    assert float(value) == midsize_population.true_school_effects[sid]
