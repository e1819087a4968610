"""Pupil scores, school scores with confidence intervals, and summaries.

Pipeline per measure: build the design for the measure's spec, fit by least
squares, divide the pupil residuals by 10 so one unit is one GCSE grade per
subject, average within school, and attach a 95% confidence interval

    score +/- 1.959964 * national_sd / sqrt(n_pupils)

where national_sd is the measure's pupil-score standard deviation across the
whole cohort (the construction published alongside national performance
tables, and stable for small schools). A school is significantly above
(below) average when its interval lies entirely above (below) zero.

Raw attainment enters as the intercept-only model, so its pupil scores are
exactly the outcome centred on the national mean, and its adjusted
R-squared is exactly 0.

Each run's :class:`MeasureSummary` holds the fit's adjusted R-squared, the
sample (N-1) SDs of the pupil scores (national_sd) and of the school scores
(unweighted; 0 with a warning for a single school), and the uncentred
outcome mean / 10. A :class:`MeasureResult` holds the fit's residuals, not
a second pupil-length copy of them: its ``scores`` are made on first read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .categories import MeasureKind, SignificanceCategory
from .cohort import ValidatedCohort, decode_ids
from .compare import SchoolScore
from .design import DesignMatrix, build_design_matrix
from .errors import AnalysisError
from .ols import FitResult, Z95, fit_ols

POINTS_PER_GRADE = 10.0


class PupilScore(NamedTuple):
    """Row view of one pupil's measure score in grades per subject (residual / 10)."""

    pupil_id: str
    measure: MeasureKind
    score: float


@dataclass(frozen=True)
class MeasureSummary:
    """Cohort-level summary of one measure's fit and score dispersion."""

    measure: MeasureKind
    adjusted_r_squared: float
    sd_pupil_scores: float
    sd_school_scores: float
    n_pupils: int
    n_schools: int
    national_mean_grades: float


@dataclass(frozen=True, eq=False)
class MeasureResult:
    """Everything one measure run produces; ``school_columns`` holds the
    school scores as columns (see :func:`school_score_columns`). The pupil
    scores are held once, as ``fit.residuals``: ``scores`` is made from them
    on first read."""

    measure: MeasureKind
    fit: FitResult
    design: DesignMatrix
    pupil_ids: np.ndarray
    school_columns: dict[str, list]
    summary: MeasureSummary

    @cached_property
    def scores(self) -> np.ndarray:
        """Pupil scores in grades per subject (residual / 10), in cohort
        pupil order."""
        return self.fit.residuals / POINTS_PER_GRADE

    @cached_property
    def pupil_scores(self) -> list[PupilScore]:
        """Row views of ``scores``: one PupilScore per pupil, made by
        ``tuple.__new__``, so no Python frame runs per pupil."""
        rows = zip(decode_ids(self.pupil_ids), repeat(self.measure), self.scores.tolist())
        return list(map(partial(tuple.__new__, PupilScore), rows))

    @cached_property
    def school_scores(self) -> list[SchoolScore]:
        """Row views of ``school_columns``: one SchoolScore per school. No
        function takes them; they are kept only because
        ``perfbench/replicate.py`` reads them."""
        return [SchoolScore(*row) for row in zip(*self.school_columns.values())]


_CATEGORIES = list(SignificanceCategory)


def school_score_columns(
    measure: MeasureKind,
    scores: np.ndarray,
    school_index: np.ndarray,
    school_ids: Sequence[str],
    national_sd: float,
) -> dict[str, list]:
    """Average pupil scores within school and attach 95% CIs, as columns.

    ``school_index`` gives each pupil's school as a position in
    ``school_ids``. Each CI is score +/- Z95 * national_sd / sqrt(n),
    computed for every school at once. The columns are plain lists keyed by
    :class:`SchoolScore` field name, in field order: ids as given, Python
    floats and ints, enum members. They follow ``school_ids`` order and skip
    schools without pupils.
    """
    if national_sd <= 0.0:
        raise AnalysisError(f"national_sd must be positive, got {national_sd!r}")
    school_index = np.asarray(school_index)
    scores = np.asarray(scores, dtype=float)
    n_schools = len(school_ids)
    counts = np.bincount(school_index, minlength=n_schools)
    means = np.bincount(school_index, weights=scores, minlength=n_schools) / np.maximum(counts, 1)
    kept = np.flatnonzero(counts)
    counts, means = counts[kept], means[kept]
    half = Z95 * national_sd / np.sqrt(counts)
    low, high = means - half, means + half
    # _CATEGORIES is above, not significant, below
    category = np.where(low > 0.0, 0, np.where(high < 0.0, 2, 1))
    return {
        "school_id": [school_ids[i] for i in kept.tolist()],
        "measure": [measure] * kept.size,
        "score": means.tolist(),
        "n_pupils": counts.tolist(),
        "ci_low": low.tolist(),
        "ci_high": high.tolist(),
        "category": list(map(_CATEGORIES.__getitem__, category.tolist())),
    }


def compute_measure(cohort: ValidatedCohort, kind: MeasureKind) -> MeasureResult:
    """Run the full pipeline for one measure on a validated cohort, summary
    included."""
    design = build_design_matrix(cohort, kind.model_spec)
    outcome = cohort.pupil_table["attainment8_total"]
    fit = fit_ols(design, outcome)

    # The sample SD of the scores, worked in one pupil-length buffer in
    # numpy's own steps for std(ddof=1) (mean, deviations squared in place,
    # pairwise sum), so it is bit-identical to scores.std(ddof=1) without
    # a second copy beside the residuals.
    dev = fit.residuals / POINTS_PER_GRADE
    dev -= dev.mean()
    np.square(dev, out=dev)
    sd_pupil = float(np.sqrt(dev.sum() / (dev.size - 1)))
    scores = np.divide(fit.residuals, POINTS_PER_GRADE, out=dev)
    # An outcome the design fits exactly (a constant one, say) leaves only
    # rounding noise: an SD at that scale counts as 0, which
    # school_score_columns rejects.
    noise = 1e-10 * max(float(outcome.max()), -float(outcome.min())) / POINTS_PER_GRADE
    national_sd = sd_pupil if sd_pupil > noise else 0.0
    schools = school_score_columns(
        kind,
        scores,
        cohort.school_index,
        decode_ids(cohort.school_table["school_id"]),
        national_sd,
    )
    n_schools = len(schools["score"])
    if n_schools == 1:
        warnings.warn("single school: school-score SD reported as 0", stacklevel=2)
        sd_school = 0.0
    else:
        sd_school = float(np.std(schools["score"], ddof=1))
    summary = MeasureSummary(
        measure=kind,
        adjusted_r_squared=fit.adjusted_r_squared,
        sd_pupil_scores=sd_pupil,
        sd_school_scores=sd_school,
        n_pupils=scores.size,
        n_schools=n_schools,
        national_mean_grades=float(outcome.mean()) / POINTS_PER_GRADE,
    )
    return MeasureResult(
        measure=kind,
        fit=fit,
        design=design,
        pupil_ids=cohort.pupil_table["pupil_id"],
        school_columns=schools,
        summary=summary,
    )

