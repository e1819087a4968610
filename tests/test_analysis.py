import csv
import itertools
from collections import Counter

import numpy as np
import pytest

from vamkit.analysis import (
    PUPIL_CHARACTERISTICS,
    SCHOOL_CHARACTERISTICS,
    pupil_breakdown,
    school_breakdown,
)
from vamkit.categories import FIELD, MeasureKind, SignificanceCategory
from vamkit.cli import run
from vamkit.cohort import serialize_pupils, serialize_schools, validate_cohort
from vamkit.compare import (
    SchoolScore,
    compare_columns,
    correlate,
    quadrant_classify,
    rank_movement,
)
from vamkit.errors import AnalysisError
from vamkit.measures import compute_measure
from vamkit.ols import Z95, cluster_robust_cov, coefficient_table, fit_ols
from vamkit.synthgen import GeneratorConfig, generate_population

from compare_reference import reference_report
from conftest import make_cohort, make_pupil, make_school, random_cohort
from dense_design import DenseDesign

A8 = MeasureKind.ATTAINMENT8
AA8 = MeasureKind.ADJUSTED_ATTAINMENT8
AP8 = MeasureKind.ADJUSTED_PROGRESS8


def score_columns(ids, scores, measure=A8):
    """The columns a comparison reads, of schools ``ids`` with ``scores``."""
    return {"school_id": list(ids), "measure": [measure] * len(ids), "score": list(scores)}


def score_list(values, measure=A8):
    return score_columns([f"S{i:03d}" for i in range(len(values))], values, measure)


# ---------------------------------------------------------------------------
# correlate
# ---------------------------------------------------------------------------


def test_self_correlation_is_one():
    a = score_list([1.0, -0.5, 0.2, 0.9])
    assert correlate(a, a) == pytest.approx(1.0, abs=1e-12)


def test_sign_flip_gives_minus_one():
    a = score_list([1.0, -0.5, 0.2, 0.9])
    b = score_list([-1.0, 0.5, -0.2, -0.9])
    assert correlate(a, b) == pytest.approx(-1.0, abs=1e-12)


def test_correlate_is_symmetric():
    rng = np.random.default_rng(1)
    a = score_list(rng.normal(size=30).tolist())
    b = score_list(rng.normal(size=30).tolist())
    assert correlate(a, b) == pytest.approx(correlate(b, a), abs=1e-15)


def test_correlate_matches_numpy_on_every_measure_pair(midsize_population):
    results = {kind: compute_measure(midsize_population.cohort, kind) for kind in MeasureKind}
    for a, b in itertools.combinations([res.school_columns for res in results.values()], 2):
        r = np.corrcoef(a["score"], b["score"])[0, 1]
        assert correlate(a, b) == pytest.approx(r, abs=1e-15)
        assert correlate(a, b) == correlate(b, a)


def test_mismatched_sets_fatal():
    a = score_list([1.0, 2.0])
    b = score_columns(["S000", "S999"], [1.0, 2.0])
    with pytest.raises(AnalysisError, match="S001.*S999|S999.*S001"):
        correlate(a, b)


def test_zero_variance_fatal():
    a = score_list([1.0, 1.0, 1.0])
    b = score_list([0.0, 0.5, 1.0])
    with pytest.raises(AnalysisError, match="zero variance"):
        correlate(a, b)


# ---------------------------------------------------------------------------
# rank_movement
# ---------------------------------------------------------------------------


def test_identical_scores_no_movement():
    a = score_list([3.0, 2.0, 1.0])
    counts, max_change = rank_movement(a, a, [1, 2])
    assert counts == {1: 0, 2: 0} and max_change == 0


def test_three_school_reversal():
    a = score_list([3.0, 2.0, 1.0])
    b = score_list([1.0, 2.0, 3.0])
    counts, max_change = rank_movement(a, b, [2])
    assert counts == {2: 2}
    assert max_change == 2


def test_rank_movement_symmetric():
    rng = np.random.default_rng(7)
    a = score_list(rng.normal(size=40).tolist())
    b = score_list(rng.normal(size=40).tolist())
    t = [1, 5, 10]
    assert rank_movement(a, b, t) == rank_movement(b, a, t)


def test_counts_monotone_in_threshold():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        a = score_list(rng.normal(size=n).tolist())
        b = score_list(rng.normal(size=n).tolist())
        thresholds = list(range(1, n + 1))
        counts, _ = rank_movement(a, b, thresholds)
        values = [counts[t] for t in thresholds]
        assert all(x >= y for x, y in zip(values, values[1:]))


def test_ties_broken_by_school_id():
    # equal scores: S000 ranks above S001 on both sides, so no movement
    a = score_columns(["S000", "S001"], [1.0, 1.0])
    b = score_columns(["S000", "S001"], [2.0, 2.0])
    counts, max_change = rank_movement(a, b, [1])
    assert counts == {1: 0} and max_change == 0


def test_thresholds_must_be_positive():
    a = score_list([1.0, 2.0])
    with pytest.raises(AnalysisError):
        rank_movement(a, a, [0])


# ---------------------------------------------------------------------------
# quadrant_classify
# ---------------------------------------------------------------------------


def test_all_positive_is_north_east():
    a = score_list([1.0, 1.0, 1.0])
    b = score_list([1.0, 1.0, 1.0])
    q = quadrant_classify(a, b)
    assert (q.nw, q.ne, q.sw, q.se) == (0, 3, 0, 0)


def test_opposite_corners():
    a = score_list([-1.0, 1.0])
    b = score_list([1.0, -1.0])
    q = quadrant_classify(a, b)
    assert (q.nw, q.ne, q.sw, q.se) == (1, 0, 0, 1)


def test_boundary_goes_lower_left():
    a = score_list([0.0, 0.0])
    b = score_list([1.0, -1.0])
    q = quadrant_classify(a, b)
    assert (q.nw, q.sw) == (1, 1) and (q.ne, q.se) == (0, 0)


def test_quadrants_sum_to_n():
    rng = np.random.default_rng(3)
    a = score_list(rng.normal(size=50).tolist())
    b = score_list(rng.normal(size=50).tolist())
    q = quadrant_classify(a, b)
    assert q.nw + q.ne + q.sw + q.se == 50


def test_disadvantaged_intake_schools_sit_north_west(midsize_population):
    # strong intake gradient: deprived schools have weak raw attainment but
    # progress measures centred on zero, so good ones land NW of (raw, adjusted)
    cohort = midsize_population.cohort
    results = {kind: compute_measure(cohort, kind) for kind in [A8, AP8]}
    a = dict(zip(results[A8].school_columns["school_id"], results[A8].school_columns["score"]))
    b = dict(zip(results[AP8].school_columns["school_id"], results[AP8].school_columns["score"]))
    deciles = cohort.school_table["school_idaci_decile"] + 1  # an INT column holds value - 1
    deprivation = dict(zip(cohort.school_table["school_id"].tolist(), deciles.tolist()))
    truth = midsize_population.true_school_effects
    strong_deprived = [
        sid for sid in a
        if deprivation[sid] >= 9 and truth[sid] >= 3.5  # clearly positive true effect
    ]
    assert strong_deprived, "fixture should contain deprived schools with positive effects"
    in_nw = [sid for sid in strong_deprived if a[sid] <= 0.0 and b[sid] > 0.0]
    assert len(in_nw) / len(strong_deprived) >= 0.5
    # and NW schools are more deprived on average than SE schools
    nw = [deprivation[sid] for sid in a if a[sid] <= 0.0 and b[sid] > 0.0]
    se = [deprivation[sid] for sid in a if a[sid] > 0.0 and b[sid] <= 0.0]
    assert np.mean(nw) > np.mean(se)


def test_compare_measures_report():
    rng = np.random.default_rng(5)
    a = score_list(rng.normal(size=25).tolist(), A8)
    b = score_list(rng.normal(size=25).tolist(), AP8)
    report = compare_columns(a, b, [1, 10])
    assert report.measure_pair == ("a8", "ap8")
    assert report.n_schools == 25
    assert -1.0 <= report.pearson_r <= 1.0
    assert set(report.movement_counts) == {1, 10}
    assert report.max_rank_change <= 24


def test_empty_score_lists_fatal():
    with pytest.raises(AnalysisError, match="empty"):
        compare_columns(score_list([]), score_list([]), [5])
    with pytest.raises(AnalysisError, match="empty"):
        compare_columns(score_list([1.0, 2.0]), score_list([]), [5])


def _outcome(compare, *args):
    """A report, or the text of the AnalysisError raised instead."""
    try:
        return compare(*args)
    except AnalysisError as exc:
        return f"AnalysisError: {exc}"


def school_score(school_id, score, measure=A8):
    """One school's row, as the per-object reference reads it."""
    return SchoolScore(
        school_id=school_id,
        measure=measure,
        score=score,
        n_pupils=10,
        ci_low=score - 0.1,
        ci_high=score + 0.1,
        category=SignificanceCategory.NOT_SIGNIFICANT,
    )


def _random_scores(rng, ids, measure):
    # few distinct values, so ties (broken by school_id) and -0.0 beside 0.0
    # are common; ids come in random order, not sorted
    values = [-1.5, -0.5, -0.0, 0.0, 0.25, 0.5, 2.0]
    return [
        school_score(sid, float(rng.choice(values)) if rng.random() < 0.7 else float(rng.normal()),
                     measure)
        for sid in rng.permutation(ids).tolist()
    ]


def test_columnar_core_matches_per_object_reference():
    rng = np.random.default_rng(19)
    outcomes = Counter()
    for _ in range(600):
        ids = [f"S{i:03d}" for i in rng.choice(60, size=int(rng.integers(1, 25)), replace=False)]
        a = _random_scores(rng, ids, A8)
        b = _random_scores(rng, ids, AP8)
        edit = rng.integers(0, 5)
        if edit == 1:  # a duplicate id
            b.append(b[int(rng.integers(len(b)))])
        elif edit == 2:  # a school only in the first
            b.pop(int(rng.integers(len(b))))
        elif edit == 3:  # a school only in the second, and maybe one only in the first
            b.append(school_score("S999", 0.0, AP8))
            if rng.random() < 0.5:
                a.append(school_score("S998", -0.0))
        thresholds = sorted({int(t) for t in rng.integers(1, 12, size=3)})
        expected = _outcome(reference_report, a, b, thresholds)
        columns = [
            {"school_id": [s.school_id for s in x], "measure": [s.measure for s in x],
             "score": [s.score for s in x]}
            for x in (a, b)
        ]
        assert _outcome(compare_columns, *columns, thresholds) == expected
        if not isinstance(expected, str):
            assert correlate(*columns) == expected.pearson_r
            assert rank_movement(*columns, thresholds) == (
                expected.movement_counts, expected.max_rank_change
            )
            assert quadrant_classify(*columns) == expected.quadrant_counts
        outcomes[expected.split(";")[0] if isinstance(expected, str) else "report"] += 1
    # every kind of outcome was reached
    assert set(outcomes) == {
        "report",
        "AnalysisError: duplicate school_id in score list",
        "AnalysisError: school sets differ",
        "AnalysisError: cannot correlate: zero variance in school scores",
        "AnalysisError: cannot compare: a score list is empty",
    }, outcomes


# ---------------------------------------------------------------------------
# breakdowns
# ---------------------------------------------------------------------------


def two_school_scores(cohort):
    result = compute_measure(cohort, A8)
    return {A8: result.scores}


def test_fsm_breakdown_counts_and_means():
    pupils = [
        make_pupil("P1", "S1", fsm=1, attainment8_total=20.0),
        make_pupil("P2", "S1", fsm=0, attainment8_total=60.0),
        make_pupil("P3", "S2", fsm=1, attainment8_total=30.0),
        make_pupil("P4", "S2", fsm=0, attainment8_total=70.0),
    ]
    cohort = make_cohort(pupils, [make_school("S1"), make_school("S2")])
    table = pupil_breakdown(cohort, two_school_scores(cohort), "fsm")
    rows = {r.category: r for r in table.rows}
    assert rows["Eligible"].n_pupils == 2 and rows["Not eligible"].n_pupils == 2
    assert rows["Eligible"].percent == pytest.approx(50.0)
    # mean outcome 45; eligible mean (20+30)/2 = 25 -> score (25-45)/10 = -2
    assert rows["Eligible"].means[A8] == pytest.approx(-2.0, abs=1e-12)
    assert rows["Not eligible"].means[A8] == pytest.approx(2.0, abs=1e-12)


def test_adjusted_characteristic_means_zero_no_stars(midsize_population):
    cohort = midsize_population.cohort
    result = compute_measure(cohort, AA8)
    table = pupil_breakdown(cohort, {AA8: result.scores}, "fsm")
    for row in table.rows:
        assert abs(row.means[AA8]) <= 1e-9
        assert row.significant[AA8] is False


def test_breakdown_pupil_counts_sum_and_percent(midsize_population):
    cohort = midsize_population.cohort
    result = compute_measure(cohort, A8)
    for characteristic in ("ethnicity", "idaci_decile", "month_of_birth"):
        table = pupil_breakdown(cohort, {A8: result.scores}, characteristic)
        assert sum(r.n_pupils for r in table.rows) == cohort.n_pupils
        assert sum(r.percent for r in table.rows) == pytest.approx(100.0, abs=0.2)


def test_breakdown_weighted_mean_is_zero(midsize_population):
    cohort = midsize_population.cohort
    result = compute_measure(cohort, A8)
    table = pupil_breakdown(cohort, {A8: result.scores}, "sen")
    weighted = sum(r.n_pupils * r.means[A8] for r in table.rows if r.n_pupils)
    assert abs(weighted / cohort.n_pupils) <= 1e-9


def test_single_school_category_suppressed():
    pupils = [
        make_pupil("P1", "S1", attainment8_total=20.0),
        make_pupil("P2", "S1", attainment8_total=40.0),
        make_pupil("P3", "S2", attainment8_total=60.0),
        make_pupil("P4", "S2", attainment8_total=70.0),
    ]
    schools = [
        make_school("S1", region="London"),
        make_school("S2", region="North East"),
    ]
    cohort = make_cohort(pupils, schools)
    result = compute_measure(cohort, A8)
    table = school_breakdown(cohort, {A8: result.scores}, "region")
    rows = {r.category: r for r in table.rows}
    assert rows["London"].significant[A8] is None
    assert rows["North East"].significant[A8] is None
    assert any("fewer than 2 schools" in note for note in table.footnotes)
    assert rows["London"].means[A8] == pytest.approx(-1.75, abs=1e-12)  # (30-47.5)/10


def test_shared_region_single_row_mean_zero(midsize_population):
    cohort = midsize_population.cohort
    south_west = FIELD["region"].encode("South West")
    schools = cohort.school_table.replace(
        region=np.full(cohort.n_schools, south_west, dtype=np.int8)
    )
    shared = validate_cohort(cohort.pupil_table, schools)
    result = compute_measure(shared, A8)
    table = school_breakdown(shared, {A8: result.scores}, "region")
    filled = [r for r in table.rows if r.n_pupils > 0]
    assert len(filled) == 1
    assert filled[0].category == "South West"
    assert abs(filled[0].means[A8]) <= 1e-9
    assert filled[0].n_schools == shared.n_schools


def test_school_breakdown_sorted_by_raw_attainment(midsize_population):
    cohort = midsize_population.cohort
    results = {kind: compute_measure(cohort, kind) for kind in [A8, AP8]}
    scores = {k: r.scores for k, r in results.items()}
    table = school_breakdown(cohort, scores, "school_idaci_decile")
    means = [r.means[A8] for r in table.rows if r.means[A8] is not None]
    assert means == sorted(means, reverse=True)
    # deprived-intake deciles should sit at the bottom of the raw ranking
    first, last = table.rows[0], table.rows[-1]
    assert int(first.category) < int(last.category)


def test_unknown_characteristic_fatal(midsize_population):
    cohort = midsize_population.cohort
    result = compute_measure(cohort, A8)
    with pytest.raises(AnalysisError, match="unknown pupil characteristic"):
        pupil_breakdown(cohort, {A8: result.scores}, "shoe_size")
    with pytest.raises(AnalysisError, match="unknown school characteristic"):
        school_breakdown(cohort, {A8: result.scores}, "shoe_size")


def test_scores_must_cover_cohort(midsize_population):
    cohort = midsize_population.cohort
    result = compute_measure(cohort, A8)
    with pytest.raises(AnalysisError, match="pupil scores"):
        pupil_breakdown(cohort, {A8: result.scores[:-1]}, "fsm")


def clustered_mean_flag(values, school_codes):
    """Hand oracle: mean != 0 at 5% with school-clustered variance.

    V = G/(G-1) * sum_g S_g^2 / n^2, where S_g sums the deviations from
    the category mean over the category's pupils in school g.
    """
    schools, cluster = np.unique(school_codes, return_inverse=True)
    g, n = schools.size, values.size
    mean = values.mean()
    sums = np.bincount(cluster, weights=values - mean)
    v = (g / (g - 1)) * float(sums @ sums) / (n * n)
    return v > 0.0 and bool(abs(mean) / np.sqrt(v) > Z95)


def cr1_mean_flag(values, school_codes):
    """Fit oracle: the intercept's CR1 test from an n x 1 dense design,
    clustered on school, as breakdown flags were once computed."""
    design = DenseDesign(np.ones((values.size, 1)), ("mean",))
    fit = fit_ols(design, values)
    return coefficient_table(fit, cluster_robust_cov(fit, design, school_codes))[0].significant


def assert_flags_match(cohort, oracle):
    """Every flag of all 15 breakdowns, four measures each, equals the oracle's."""
    results = {kind: compute_measure(cohort, kind) for kind in MeasureKind}
    scores = {k: r.scores for k, r in results.items()}
    checked = []
    for characteristics, breakdown, codes_of in (
        (PUPIL_CHARACTERISTICS, pupil_breakdown, lambda c: cohort.pupil_table[c]),
        (
            SCHOOL_CHARACTERISTICS,
            school_breakdown,
            lambda c: cohort.school_table[c][cohort.school_index],
        ),
    ):
        for characteristic in characteristics:
            codes = codes_of(characteristic)
            levels = FIELD[characteristic].levels
            table = breakdown(cohort, scores, characteristic)
            for row in table.rows:
                code = levels.index(row.category) if row.category in levels else -1
                mask = codes == code
                for kind, flag in row.significant.items():
                    if row.n_schools < 2:
                        assert flag is None
                        continue
                    expected = oracle(scores[kind][mask], cohort.school_index[mask])
                    assert flag is expected, (characteristic, row.category, kind)
                    checked.append(flag)
    return checked


def test_breakdown_flags_match_clustered_mean_oracle(midsize_population):
    checked = assert_flags_match(midsize_population.cohort, clustered_mean_flag)
    assert True in checked and False in checked


@pytest.mark.filterwarnings("ignore::UserWarning")  # levels absent from a small cohort
@pytest.mark.parametrize("seed", range(4))
def test_breakdown_flags_match_cr1_fit_on_random_cohorts(seed):
    assert_flags_match(random_cohort(seed, n_schools=5 + seed, pupils_per_school=20), cr1_mean_flag)


def test_breakdown_flags_match_cr1_fit_at_default_size():
    pop = generate_population(GeneratorConfig(seed=612))
    checked = assert_flags_match(pop.cohort, cr1_mean_flag)
    assert True in checked and False in checked


def test_breakdown_rejects_non_finite_scores(midsize_population):
    cohort = midsize_population.cohort
    scores = compute_measure(cohort, A8).scores.copy()
    scores[3] = np.nan
    with pytest.raises(AnalysisError, match="finite"):
        pupil_breakdown(cohort, {A8: scores}, "fsm")


@pytest.mark.filterwarnings("ignore::UserWarning")  # levels absent from a small cohort
def test_missing_ks2_breakdown_row_matches_mask_reference(tmp_path):
    # every seventh pupil's ks2_group is an empty cell: breakdown --by
    # ks2_group ends with a (missing) row of code -1, which must equal the
    # mean, count, share and flag of scores[codes == -1]
    cohort = generate_population(GeneratorConfig(n_schools=40, seed=7)).cohort
    ks2 = cohort.pupil_table["ks2_group"].copy()
    ks2[::7] = -1
    edited_pupils = cohort.pupil_table.replace(ks2_group=ks2)
    (tmp_path / "pupils.csv").write_bytes(serialize_pupils(edited_pupils))
    (tmp_path / "schools.csv").write_bytes(serialize_schools(cohort.school_table))
    out = tmp_path / "bd"
    argv = [
        "breakdown",
        "--pupils", str(tmp_path / "pupils.csv"),
        "--schools", str(tmp_path / "schools.csv"),
        "--measures", "a8,aa8",
        "--by", "ks2_group",
        "--out", str(out),
    ]
    assert run(argv) == 0
    with open(out / "breakdown_ks2_group.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    row = rows[-1]
    assert row["category"] == "(missing)" and len(rows) == len(FIELD["ks2_group"].levels) + 1

    edited = validate_cohort(edited_pupils, cohort.school_table)
    mask = edited.pupil_table["ks2_group"] == -1
    n = int(mask.sum())
    assert int(row["n_pupils"]) == n == ks2[::7].size
    assert int(row["n_schools"]) == np.unique(edited.school_index[mask]).size
    assert row["percent"] == f"{100.0 * n / edited.n_pupils:.1f}"
    for kind in (A8, AA8):
        scores = compute_measure(edited, kind).scores
        assert row[f"mean_{kind.code}"] == repr(float(scores[mask].mean()))
        flag = clustered_mean_flag(scores[mask], edited.school_index[mask])
        assert row[f"significant_{kind.code}"] == ("1" if flag else "0")
