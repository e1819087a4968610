"""School performance measures from pupil-level records.

Computes and compares four school measures from a pupil cohort: raw
attainment, attainment adjusted for pupil background, progress relative to
prior attainment, and progress adjusted for both. All four are least-squares
residual measures with school-clustered inference; a seeded synthetic
generator makes the whole pipeline testable without confidential data.

The public names below are imported from their modules on first use
(PEP 562), so ``import vamkit`` loads no numpy and a CLI subcommand loads
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_HOMES = {
    "analysis": ("breakdown",),
    "categories": (
        "MeasureKind", "ModelSpec", "PUPIL_CHARACTERISTICS", "SCHOOL_CHARACTERISTICS",
        "SignificanceCategory",
    ),
    "cohort": (
        "PupilRecord", "SchoolRecord", "Table", "ValidatedCohort", "decode_ids", "parse_pupils",
        "parse_schools", "serialize_blocks", "validate_cohort",
    ),
    "compare": ("SchoolScore", "compare_columns", "quadrant_classify", "rank_movement"),
    "csvio": ("ParseIssue",),
    "design": ("DesignMatrix", "build_design_matrix", "design_labels"),
    "errors": (
        "AnalysisError", "CohortError", "DesignError", "FitError", "GeneratorError", "VamkitError",
    ),
    "measures": (
        "MeasureResult", "MeasureSummary", "PupilScore", "compute_measure", "school_score_columns",
    ),
    "ols": (
        "ClusterCovariance", "FitResult", "Z95", "cluster_robust_cov", "coefficient_table",
        "fit_ols",
    ),
    "synthgen": (
        "DEFAULT_COEFFICIENTS", "GeneratorConfig", "SyntheticCohort", "dgp_from_coefficients",
        "generate_population", "serialize_truth",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME, key=str.casefold)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
