import dataclasses

import numpy as np
import pytest

from vamkit.categories import FIELD, MeasureKind, SignificanceCategory
from vamkit.cohort import decode_ids, validate_cohort
from vamkit.compare import SchoolScore
from vamkit.errors import AnalysisError
from vamkit.measures import compute_measure, school_score_columns
from vamkit.ols import Z95

from conftest import make_cohort, make_pupil, make_school, random_cohort

A8 = MeasureKind.ATTAINMENT8
P8 = MeasureKind.PROGRESS8


def rows(columns):
    return [SchoolScore(*row) for row in zip(*columns.values())]


def one_school(values, national_sd=1.0):
    scores = np.asarray(values, dtype=float)
    return rows(
        school_score_columns(A8, scores, np.zeros(scores.size, dtype=int), ["S1"], national_sd)
    )


# ---------------------------------------------------------------------------
# school_score_columns
# ---------------------------------------------------------------------------


def test_all_zero_school_is_average():
    (score,) = one_school([0.0, 0.0, 0.0])
    assert score.score == 0.0
    assert score.category is SignificanceCategory.NOT_SIGNIFICANT


def test_ci_hand_example_four_pupils():
    (score,) = one_school([0.2, 0.4, 0.6, 0.8])
    assert score.score == pytest.approx(0.5, abs=1e-12)
    assert score.n_pupils == 4
    assert score.ci_low == pytest.approx(0.5 - 1.959964 / 2.0, abs=1e-12)   # -0.479982
    assert score.ci_high == pytest.approx(0.5 + 1.959964 / 2.0, abs=1e-12)  # 1.479982
    assert score.category is SignificanceCategory.NOT_SIGNIFICANT


def test_ci_hand_example_four_hundred_pupils():
    (score,) = one_school([0.5] * 400)
    assert score.ci_low == pytest.approx(0.4020018, abs=1e-7)
    assert score.ci_high == pytest.approx(0.5979982, abs=1e-7)
    assert score.category is SignificanceCategory.SIGNIFICANTLY_ABOVE


def test_significantly_below():
    (score,) = one_school([-0.5] * 400)
    assert score.category is SignificanceCategory.SIGNIFICANTLY_BELOW


def test_school_ci_uses_national_sd():
    # the school's own pupil-score SD (0.26 here) plays no part
    scores = np.array([0.2, 0.4, 0.6, 0.8, 3.0])
    index = np.array([0, 0, 0, 0, 1])
    four, single = rows(school_score_columns(A8, scores, index, ["S1", "S2"], 1.0))
    assert four.ci_high - four.ci_low == pytest.approx(2 * 1.959964 / 2.0)
    assert single.ci_high - single.ci_low == pytest.approx(2 * 1.959964, abs=1e-12)


def test_school_score_fields_are_python_values():
    # every number is a Python float or int (the CI bounds were np.float64
    # when computed school by school), in rows and columns alike
    result = compute_measure(build_two_school_cohort(), A8)
    columns = result.school_columns
    assert list(columns) == [f.name for f in dataclasses.fields(SchoolScore)]
    for school in result.school_scores + rows(school_score_columns(
        A8, np.array([0.2, 0.4, 0.6]), np.array([0, 0, 1]), ["S1", "S2"], 1.0
    )):
        assert [type(getattr(school, f)) for f in ("score", "ci_low", "ci_high")] == [float] * 3
        assert type(school.n_pupils) is int and type(school.school_id) is str
        assert isinstance(school.category, SignificanceCategory)
    assert result.school_scores == rows(columns)


def test_national_sd_must_be_positive():
    with pytest.raises(AnalysisError):
        one_school([0.1], national_sd=0.0)


# ---------------------------------------------------------------------------
# compute_measure
# ---------------------------------------------------------------------------


def build_two_school_cohort():
    pupils = []
    # S1: ks2 groups 1,1,2 with outcomes 10,20,60; S2: groups 2,2 outcomes 50,40
    data = [
        ("P1", "S1", 1, 10.0),
        ("P2", "S1", 1, 20.0),
        ("P3", "S1", 2, 60.0),
        ("P4", "S2", 2, 50.0),
        ("P5", "S2", 2, 40.0),
    ]
    for pid, sid, ks2, a8 in data:
        pupils.append(make_pupil(pid, sid, ks2_group=ks2, attainment8_total=a8))
    return make_cohort(pupils, [make_school("S1"), make_school("S2")])


def test_attainment8_scores_are_centred_outcome():
    cohort = build_two_school_cohort()
    result = compute_measure(cohort, A8)
    y = cohort.pupil_table["attainment8_total"]
    expected = (y - y.mean()) / 10.0
    got = result.scores
    assert got == pytest.approx(expected, abs=1e-12)
    assert abs(got.mean()) <= 1e-9
    assert result.summary.national_mean_grades == pytest.approx(y.mean() / 10.0)
    assert result.summary.adjusted_r_squared == 0.0
    # school score = (school mean outcome - national mean) / 10, exactly
    for school in result.school_scores:
        members = y[cohort.pupil_table["school_id"] == school.school_id.encode()]
        assert school.score == pytest.approx((members.mean() - y.mean()) / 10.0, abs=1e-12)


def test_residual_to_grade_scaling():
    cohort = build_two_school_cohort()
    result = compute_measure(cohort, A8)
    assert result.scores * 10.0 == pytest.approx(result.fit.residuals, abs=1e-12)


def test_progress8_equals_group_mean_oracle():
    cohort = build_two_school_cohort()
    with pytest.warns(UserWarning):  # ks2 groups 3..34 absent
        result = compute_measure(cohort, P8)
    table = cohort.pupil_table
    y = dict(zip(table["pupil_id"].tolist(), table["attainment8_total"].tolist()))
    group = dict(zip(table["pupil_id"].tolist(), table["ks2_group"].tolist()))
    group_means = {
        g: np.mean([y[pid] for pid in y if group[pid] == g]) for g in set(group.values())
    }
    for pid, score in zip(result.pupil_ids.tolist(), result.scores.tolist()):
        oracle = (y[pid] - group_means[group[pid]]) / 10.0
        assert score == pytest.approx(oracle, abs=1e-10)


def test_progress8_group_mean_oracle_midsize(midsize_population):
    cohort = midsize_population.cohort
    result = compute_measure(cohort, P8)
    y = cohort.pupil_table["attainment8_total"]
    groups = cohort.pupil_table["ks2_group"]
    means = {g: y[groups == g].mean() for g in np.unique(groups)}
    oracle = np.array([(yi - means[g]) / 10.0 for yi, g in zip(y, groups)])
    got = result.scores
    assert np.max(np.abs(got - oracle)) <= 1e-10


def test_zero_category_means_for_adjusted_covariates():
    cohort = random_cohort(314, n_schools=8, pupils_per_school=40)
    result = compute_measure(cohort, MeasureKind.ADJUSTED_ATTAINMENT8)
    scores = result.scores
    fsm = cohort.pupil_table["fsm"] == 1
    assert abs(scores[fsm].mean()) <= 1e-9
    assert abs(scores[~fsm].mean()) <= 1e-9
    genders = cohort.pupil_table["gender"]
    for g in ("Male", "Female"):
        assert abs(scores[genders == FIELD["gender"].encode(g)].mean()) <= 1e-9


def test_nested_sd_orderings(midsize_population):
    results = {kind: compute_measure(midsize_population.cohort, kind) for kind in MeasureKind}
    sd = {k: r.summary.sd_pupil_scores for k, r in results.items()}
    assert sd[MeasureKind.ATTAINMENT8] >= sd[MeasureKind.ADJUSTED_ATTAINMENT8]
    assert sd[MeasureKind.ADJUSTED_ATTAINMENT8] >= sd[MeasureKind.ADJUSTED_PROGRESS8]
    assert sd[MeasureKind.ATTAINMENT8] >= sd[MeasureKind.PROGRESS8]
    assert sd[MeasureKind.PROGRESS8] >= sd[MeasureKind.ADJUSTED_PROGRESS8]


def test_outcome_scaling_preserves_ranks_and_categories():
    cohort = build_two_school_cohort()
    base = compute_measure(cohort, A8)
    scaled_pupils = cohort.pupil_table.replace(
        attainment8_total=cohort.pupil_table["attainment8_total"] / 10.0
    )
    scaled_cohort = validate_cohort(scaled_pupils, cohort.school_table)
    scaled = compute_measure(scaled_cohort, A8)
    for s_base, s_scaled in zip(base.school_scores, scaled.school_scores):
        assert s_scaled.school_id == s_base.school_id
        assert s_scaled.score * 10.0 == pytest.approx(s_base.score, abs=1e-12)
        assert s_scaled.category is s_base.category
    rank_base = [s.school_id for s in sorted(base.school_scores, key=lambda s: -s.score)]
    rank_scaled = [s.school_id for s in sorted(scaled.school_scores, key=lambda s: -s.score)]
    assert rank_base == rank_scaled


def test_missing_ks2_rejected_for_progress_measures():
    pupils = [
        make_pupil("P1", "S1", ks2_group=None),
        make_pupil("P2", "S1", ks2_group=3, attainment8_total=30.0),
        make_pupil("P3", "S1", ks2_group=4, attainment8_total=60.0),
    ]
    cohort = make_cohort(pupils, [make_school("S1")])
    from vamkit.errors import DesignError

    with pytest.raises(DesignError, match="P1"):
        compute_measure(cohort, P8)
    with pytest.warns(UserWarning, match="single school"):
        compute_measure(cohort, A8)  # fine without prior attainment


def test_single_school_summary_warns():
    pupils = [
        make_pupil("P1", "S1", attainment8_total=30.0),
        make_pupil("P2", "S1", attainment8_total=60.0),
    ]
    cohort = make_cohort(pupils, [make_school("S1")])
    with pytest.warns(UserWarning, match="single school"):
        result = compute_measure(cohort, A8)
    assert result.summary.sd_school_scores == 0.0


def test_measure_summary_sample_convention():
    # a8 pupil scores -1.5, -0.5, 0.5, 1.5 (outcome 0/10/20/30 less 15, over
    # 10): the SDs are those of 0..3 and of the school means 0.5 and 2.5
    pupils = [
        make_pupil(f"P{i}", sid, attainment8_total=10.0 * i)
        for i, sid in enumerate(["S1", "S1", "S2", "S2"])
    ]
    cohort = make_cohort(pupils, [make_school("S1"), make_school("S2")])
    summary = compute_measure(cohort, A8).summary
    assert summary.measure is A8
    assert summary.sd_pupil_scores == pytest.approx(np.std([0, 1, 2, 3], ddof=1))
    assert summary.sd_school_scores == pytest.approx(np.std([0.5, 2.5], ddof=1))
    assert summary.n_pupils == 4 and summary.n_schools == 2
    assert summary.national_mean_grades == pytest.approx(1.5)


def test_school_scores_equal_per_school_loop(midsize_population):
    # reference: collect each school's pupil scores in cohort order, then
    # their mean. school_score_columns sums by bincount in row order and numpy
    # sums pairwise, so each mean may differ from the reference by up to
    # 2 * n * eps * max|score|; each CI half-width is Z95 * national SD / sqrt(n).
    cohort = midsize_population.cohort
    eps = np.finfo(float).eps
    for kind in (A8, MeasureKind.ADJUSTED_PROGRESS8):
        result = compute_measure(cohort, kind)
        national_sd = float(result.scores.std(ddof=1))
        by_school = {}
        school_ids = decode_ids(cohort.pupil_table["school_id"])
        for school_id, score in zip(school_ids, result.scores.tolist()):
            by_school.setdefault(school_id, []).append(score)
        assert [s.school_id for s in result.school_scores] == sorted(by_school)
        for school in result.school_scores:
            values = np.asarray(by_school[school.school_id])
            assert school.n_pupils == values.size
            tol = 2 * values.size * eps * np.abs(values).max()
            assert abs(school.score - float(values.mean())) <= tol
            half = Z95 * national_sd / np.sqrt(values.size)
            assert (school.ci_high - school.ci_low) / 2 == pytest.approx(half, rel=1e-12)
