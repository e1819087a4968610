"""School performance measures from pupil-level records.

Computes and compares four school measures from a pupil cohort: raw
attainment, attainment adjusted for pupil background, progress relative to
prior attainment, and progress adjusted for both. All four are least-squares
residual measures with school-clustered inference; a seeded synthetic
generator makes the whole pipeline testable without confidential data.
"""

from .analysis import (
    BreakdownRow,
    BreakdownTable,
    ComparisonReport,
    PUPIL_CHARACTERISTICS,
    QuadrantCounts,
    SCHOOL_CHARACTERISTICS,
    compare_measures,
    correlate,
    pupil_breakdown,
    quadrant_classify,
    rank_movement,
    school_breakdown,
)
from .cohort import (
    ParseIssue,
    PupilRecord,
    SchoolRecord,
    Table,
    ValidatedCohort,
    parse_pupils,
    parse_schools,
    serialize_pupils,
    serialize_schools,
    validate_cohort,
)
from .design import (
    DesignMatrix,
    MeasureKind,
    ModelSpec,
    band_ks2,
    build_design_matrix,
    design_labels,
)
from .errors import (
    AnalysisError,
    CohortError,
    DesignError,
    FitError,
    GeneratorError,
    VamkitError,
)
from .measures import (
    MeasureResult,
    MeasureSummary,
    PupilScore,
    SchoolScore,
    SignificanceCategory,
    compute_measure,
    compute_measures,
    measure_summary,
    school_scores,
)
from .ols import (
    ClusterCovariance,
    CoefficientRow,
    FitResult,
    Z95,
    cluster_robust_cov,
    coefficient_table,
    fit_ols,
)
from .synthgen import (
    DEFAULT_COEFFICIENTS,
    GeneratorConfig,
    SyntheticCohort,
    dgp_from_coefficients,
    generate_population,
    serialize_truth,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "BreakdownRow",
    "BreakdownTable",
    "ClusterCovariance",
    "CoefficientRow",
    "CohortError",
    "ComparisonReport",
    "DEFAULT_COEFFICIENTS",
    "DesignError",
    "DesignMatrix",
    "FitError",
    "FitResult",
    "GeneratorConfig",
    "GeneratorError",
    "MeasureKind",
    "MeasureResult",
    "MeasureSummary",
    "ModelSpec",
    "ParseIssue",
    "PUPIL_CHARACTERISTICS",
    "PupilRecord",
    "PupilScore",
    "QuadrantCounts",
    "SCHOOL_CHARACTERISTICS",
    "SchoolRecord",
    "SchoolScore",
    "SignificanceCategory",
    "SyntheticCohort",
    "Table",
    "ValidatedCohort",
    "VamkitError",
    "Z95",
    "band_ks2",
    "build_design_matrix",
    "cluster_robust_cov",
    "coefficient_table",
    "compare_measures",
    "compute_measure",
    "compute_measures",
    "correlate",
    "design_labels",
    "dgp_from_coefficients",
    "fit_ols",
    "generate_population",
    "measure_summary",
    "parse_pupils",
    "parse_schools",
    "pupil_breakdown",
    "quadrant_classify",
    "rank_movement",
    "school_breakdown",
    "school_scores",
    "serialize_pupils",
    "serialize_schools",
    "serialize_truth",
    "validate_cohort",
]
