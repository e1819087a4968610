"""Exception types shared across the package.

Every fatal condition raises a subclass of :class:`VamkitError`, so the CLI can
map any library failure to exit code 1 and print the message verbatim.
"""


class VamkitError(ValueError):
    """Base class for all fatal vamkit errors."""


class CohortError(VamkitError):
    """Fatal problem in pupil/school data: bad header, broken cross-references."""

    inputs: tuple[str, ...] = ()  # validate_cohort's argument(s) at fault, in order


class DesignError(VamkitError):
    """Design matrix cannot be built, e.g. missing prior attainment."""


class FitError(VamkitError):
    """Least-squares estimation is impossible or ill-posed."""


class AnalysisError(VamkitError):
    """Comparison or breakdown inputs are inconsistent."""


class GeneratorError(VamkitError):
    """Synthetic population configuration is invalid."""
