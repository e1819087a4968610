"""The paper's claims about progress and adjusted progress, on the default
cohort (300 schools, seed 612), against the generator's true school
effects. The audit itself is ``paper_audit.py``. The bounds are stated for
this cohort only: each claim's sign also holds at 300/1, 300/2 and 1000/3,
but at 300/2 ap8's lowest FSM quintile covers exactly 0.90."""

import pytest

from vamkit.categories import MeasureKind
from vamkit.synthgen import GeneratorConfig

from paper_audit import audit

P8 = MeasureKind.PROGRESS8
AP8 = MeasureKind.ADJUSTED_PROGRESS8


@pytest.fixture(scope="module")
def default_audit():
    return audit(GeneratorConfig(n_schools=300, seed=612))


def test_adjusted_progress_tracks_truth_better_than_progress(default_audit):
    assert default_audit[AP8].r_truth > default_audit[P8].r_truth


def test_progress_error_penalises_high_fsm_schools(default_audit):
    assert default_audit[P8].r_error_fsm < -0.5


def test_adjusted_progress_error_is_unrelated_to_intake(default_audit):
    assert abs(default_audit[AP8].r_error_fsm) < 0.15
    assert abs(default_audit[AP8].r_error_ks2) < 0.15


def test_adjusted_progress_covers_truth_in_every_fsm_quintile(default_audit):
    assert min(default_audit[AP8].coverage_by_fsm_quintile) >= 0.90


def test_progress_undercovers_the_extreme_fsm_quintiles(default_audit):
    lowest, *_, highest = default_audit[P8].coverage_by_fsm_quintile
    assert lowest < 0.75 and highest < 0.75
