"""Exception types shared across the package, and the id lists in their messages.

Every fatal condition raises a subclass of :class:`VamkitError`, so the CLI can
map any library failure to exit code 1 and print the message verbatim. A
message that names ids names at most 20 (:func:`id_list`), each printable,
so it stays one readable stderr line however many rows are at fault.
"""

# an error message lists at most this many ids
_MAX_IDS = 20


def id_list(ids: list[str]) -> str:
    """The ids, comma-separated, for a message: the first 20 of a longer list,
    then how many more there are and how many in all. An id that is not
    printable (a quoted cell may hold a newline) is shown by its ``repr``."""
    shown = ", ".join(i if i.isprintable() else repr(i) for i in ids[:_MAX_IDS])
    if len(ids) <= _MAX_IDS:
        return shown
    return f"{shown} (and {len(ids) - _MAX_IDS} more; {len(ids)} in all)"


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
