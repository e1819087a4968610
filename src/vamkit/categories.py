"""The field table of the pupil and school files, and the measure codes.

``PUPIL_FIELDS`` and ``SCHOOL_FIELDS`` are the one place that lists the
columns of both files, their level universes, design reference levels and
design-label rule. Parsing, serialising, design matrices, breakdowns and
the synthetic generator are all driven by them.

A category's universe is a tuple of its levels, in code order; each level
is the canonical spelling used in CSV files and reports. Parsing is
tolerant of case and surrounding/internal whitespace (including spaces
around "/"), but the universes themselves are closed: anything that does
not normalise onto a listed spelling is rejected.

The measure codes (:class:`MeasureKind`, with the :class:`ModelSpec` of
each) and the school significance categories live here too, so that the
CLI's comparison path can name them without importing numpy.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable


def _normalise(text: str) -> str:
    """Fold a category string to its matching key: trim, collapse whitespace,
    drop spaces around slashes, casefold."""
    parts = " ".join(text.split())
    parts = parts.replace(" / ", "/").replace(" /", "/").replace("/ ", "/")
    return parts.casefold()


class Kind(enum.Enum):
    """How a column is spelled in CSV and held in memory."""

    ID = "id"  # non-empty string of at most ID_MAX_CHARS, held as a numpy unicode array
    FLOAT = "float"  # real number within bounds, held as float64
    INT = "int"  # integer within bounds; held as the code value - low bound
    ENUM = "enum"  # one of the field's levels; held as its index in them
    FLAG = "flag"  # 0 or 1; held as that code


# longest id kept: a UPN has 13 characters, a URN 6, a SHA-256 hex pseudonym 64
ID_MAX_CHARS = 64


def _slug(level: str) -> str:
    return "_".join(level.replace("/", " ").split())


@dataclass(frozen=True)
class Field:
    """One CSV column: its kind, level universe in code order and design role.

    ``reference`` is the level a covariate's design leaves out (None for a
    column that is not a design covariate). Each other level gets the design
    column ``<name>_<suffix(level)>``. Category codes are small ints; code
    -1 marks a missing value of an ``optional`` INT column.
    """

    name: str
    kind: Kind
    levels: tuple[str, ...] = ()
    reference: str | None = None
    suffix: Callable[[str], str] = _slug
    bounds: tuple = ()
    optional: bool = False

    @functools.cached_property
    def spellings(self) -> tuple[str, ...]:
        """CSV spelling of each code."""
        return ("0", "1") if self.kind is Kind.FLAG else self.levels

    @functools.cached_property
    def values(self) -> tuple:
        """Record value of each code: level spellings, ints or bools."""
        if self.kind is Kind.ENUM:
            return self.levels
        if self.kind is Kind.INT:
            return tuple(range(self.bounds[0], self.bounds[1] + 1))
        return (False, True)

    @functools.cached_property
    def design_codes(self) -> tuple[int, ...]:
        """Codes that get a design column: every level but the reference."""
        ref = self.levels.index(self.reference)
        return tuple(c for c in range(len(self.levels)) if c != ref)

    @functools.cached_property
    def design_labels(self) -> tuple[str, ...]:
        return tuple(f"{self.name}_{self.suffix(self.levels[c])}" for c in self.design_codes)

    @functools.cached_property
    def _codes(self) -> dict[str, int]:
        """Code of each level, keyed by its ``_normalise``d spelling."""
        return {_normalise(level): code for code, level in enumerate(self.levels)}

    def encode(self, text: str):
        """Stored value of one stripped CSV cell; ValueError names the fault."""
        if self.kind is Kind.ID:
            if not text:
                raise ValueError("must not be empty")
            if len(text) > ID_MAX_CHARS:
                raise ValueError(f"must be at most {ID_MAX_CHARS} characters, got {len(text)}")
            return text
        if self.kind is Kind.FLOAT:
            value = float(text)
            lo, hi = self.bounds
            if not lo <= value <= hi:
                raise ValueError(f"must be in [{lo:g}, {hi:g}], got {value:g}")
            return value
        if self.kind is Kind.INT:
            if self.optional and text == "":
                return -1
            lo, hi = self.bounds
            value = int(text)
            if not lo <= value <= hi:
                raise ValueError(f"must be an integer in {lo}..{hi}, got {text!r}")
            return value - lo
        if self.kind is Kind.ENUM:
            code = self._codes.get(_normalise(text))
            if code is None:
                raise ValueError(f"unknown value {text!r}; valid values: {', '.join(self.levels)}")
            return code
        if text not in self.spellings:
            raise ValueError(f"must be 0 or 1, got {text!r}")
        return self.spellings.index(text)


def _ints(name: str, lo: int, hi: int, **role) -> Field:
    return Field(name, Kind.INT, tuple(str(v) for v in range(lo, hi + 1)), bounds=(lo, hi), **role)


PUPIL_FIELDS = (
    Field("pupil_id", Kind.ID),
    Field("school_id", Kind.ID),
    Field("attainment8_total", Kind.FLOAT, bounds=(0.0, 90.0)),
    _ints("ks2_group", 1, 34, reference="1", optional=True),
    Field(  # in academic-year order
        "month_of_birth",
        Kind.ENUM,
        (
            "September", "October", "November", "December", "January", "February",
            "March", "April", "May", "June", "July", "August",
        ),
        reference="September",
    ),
    Field("gender", Kind.ENUM, ("Male", "Female"), reference="Male"),
    Field(
        "ethnicity",
        Kind.ENUM,
        (
            "White British", "White Irish", "Traveller of Irish Heritage", "Gypsy / Roma",
            "Any Other White Background", "Black African", "Black Caribbean",
            "Any Other Black Background", "Indian", "Pakistani", "Bangladeshi",
            "Any Other Asian Background", "Chinese", "White and Black African",
            "White and Black Caribbean", "White and Asian", "Any Other Mixed Background",
            "Any Other Ethnic Group", "Information Not Yet Obtained", "Refused",
        ),
        reference="White British",
    ),
    Field("first_language", Kind.ENUM, ("English", "Other"), reference="English"),
    # special educational needs status
    Field("sen", Kind.ENUM, ("None", "SEN support", "Statement"), reference="None"),
    Field("fsm", Kind.FLAG, ("Not eligible", "Eligible"), reference="Not eligible", suffix=str.lower),
    _ints("idaci_decile", 1, 10, reference="1"),
)

SCHOOL_FIELDS = (
    Field("school_id", Kind.ID),
    Field(
        "region",
        Kind.ENUM,
        (
            "London", "South East", "South West", "West Midlands", "North West",
            "North East", "Yorkshire & Humber", "East Midlands", "East of England",
        ),
    ),
    Field(
        "school_type",
        Kind.ENUM,
        (
            "Community", "Foundation", "Voluntary aided", "Voluntary controlled",
            "City tech. college", "Sponsored academy", "Converter academy", "Free",
            "Studio", "Uni. tech. college", "Further ed. college",
        ),
    ),
    Field("admissions", Kind.ENUM, ("Comprehensive", "Grammar", "Secondary modern")),
    Field("age_range", Kind.ENUM, ("11-18", "11-16", "14-18", "4-18", "4-16")),
    Field("school_gender", Kind.ENUM, ("Mixed", "Boys", "Girls")),
    Field(
        "religion",
        Kind.ENUM,
        (
            "None", "Church of England", "Roman catholic", "Other Christian faith",
            "Jewish", "Muslim", "Sikh",
        ),
    ),
    _ints("school_idaci_decile", 1, 10),
)

FIELD = {f.name: f for f in PUPIL_FIELDS + SCHOOL_FIELDS}

PUPIL_CHARACTERISTICS = tuple(f.name for f in PUPIL_FIELDS if f.levels)
SCHOOL_CHARACTERISTICS = tuple(f.name for f in SCHOOL_FIELDS if f.levels)


@dataclass(frozen=True)
class ModelSpec:
    """Which covariate blocks a model adjusts for."""

    include_prior_attainment: bool
    include_background: bool


class MeasureKind(enum.Enum):
    """The four school performance measures; values are the CLI short codes."""

    ATTAINMENT8 = "a8"
    ADJUSTED_ATTAINMENT8 = "aa8"
    PROGRESS8 = "p8"
    ADJUSTED_PROGRESS8 = "ap8"

    @property
    def model_spec(self) -> ModelSpec:
        prior = self in (MeasureKind.PROGRESS8, MeasureKind.ADJUSTED_PROGRESS8)
        background = self in (MeasureKind.ADJUSTED_ATTAINMENT8, MeasureKind.ADJUSTED_PROGRESS8)
        return ModelSpec(include_prior_attainment=prior, include_background=background)

    @property
    def code(self) -> str:
        return self.value


class SignificanceCategory(enum.Enum):
    SIGNIFICANTLY_ABOVE = "significantly_above"
    NOT_SIGNIFICANT = "not_significant"
    SIGNIFICANTLY_BELOW = "significantly_below"
