"""Closed category sets and the field table of the pupil and school files.

Each enum value is the canonical spelling used in CSV files and reports.
Parsing is tolerant of case and surrounding/internal whitespace (including
spaces around "/"), but the universes themselves are closed: anything that
does not normalise onto a listed spelling is rejected.

``PUPIL_FIELDS`` and ``SCHOOL_FIELDS`` are the one place that lists the
columns of both files, their level universes, design reference levels and
design-label rule. Parsing, serialising, design matrices, breakdowns and
the synthetic generator are all driven by them.

The measure codes (:class:`MeasureKind`, with the :class:`ModelSpec` of
each) and the school significance categories live here too, so that the
CLI's comparison path can name them without importing numpy.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable


class Month(enum.Enum):
    """Month of birth in academic-year order; September is the reference/first."""

    SEPTEMBER = "September"
    OCTOBER = "October"
    NOVEMBER = "November"
    DECEMBER = "December"
    JANUARY = "January"
    FEBRUARY = "February"
    MARCH = "March"
    APRIL = "April"
    MAY = "May"
    JUNE = "June"
    JULY = "July"
    AUGUST = "August"


class Gender(enum.Enum):
    MALE = "Male"
    FEMALE = "Female"


class Ethnicity(enum.Enum):
    WHITE_BRITISH = "White British"
    WHITE_IRISH = "White Irish"
    TRAVELLER_OF_IRISH_HERITAGE = "Traveller of Irish Heritage"
    GYPSY_ROMA = "Gypsy / Roma"
    ANY_OTHER_WHITE_BACKGROUND = "Any Other White Background"
    BLACK_AFRICAN = "Black African"
    BLACK_CARIBBEAN = "Black Caribbean"
    ANY_OTHER_BLACK_BACKGROUND = "Any Other Black Background"
    INDIAN = "Indian"
    PAKISTANI = "Pakistani"
    BANGLADESHI = "Bangladeshi"
    ANY_OTHER_ASIAN_BACKGROUND = "Any Other Asian Background"
    CHINESE = "Chinese"
    WHITE_AND_BLACK_AFRICAN = "White and Black African"
    WHITE_AND_BLACK_CARIBBEAN = "White and Black Caribbean"
    WHITE_AND_ASIAN = "White and Asian"
    ANY_OTHER_MIXED_BACKGROUND = "Any Other Mixed Background"
    ANY_OTHER_ETHNIC_GROUP = "Any Other Ethnic Group"
    INFORMATION_NOT_YET_OBTAINED = "Information Not Yet Obtained"
    REFUSED = "Refused"


class FirstLanguage(enum.Enum):
    ENGLISH = "English"
    OTHER = "Other"


class Sen(enum.Enum):
    """Special educational needs status."""

    NONE = "None"
    SUPPORT = "SEN support"
    STATEMENT = "Statement"


class Region(enum.Enum):
    LONDON = "London"
    SOUTH_EAST = "South East"
    SOUTH_WEST = "South West"
    WEST_MIDLANDS = "West Midlands"
    NORTH_WEST = "North West"
    NORTH_EAST = "North East"
    YORKSHIRE_AND_HUMBER = "Yorkshire & Humber"
    EAST_MIDLANDS = "East Midlands"
    EAST_OF_ENGLAND = "East of England"


class SchoolType(enum.Enum):
    COMMUNITY = "Community"
    FOUNDATION = "Foundation"
    VOLUNTARY_AIDED = "Voluntary aided"
    VOLUNTARY_CONTROLLED = "Voluntary controlled"
    CITY_TECH_COLLEGE = "City tech. college"
    SPONSORED_ACADEMY = "Sponsored academy"
    CONVERTER_ACADEMY = "Converter academy"
    FREE = "Free"
    STUDIO = "Studio"
    UNI_TECH_COLLEGE = "Uni. tech. college"
    FURTHER_ED_COLLEGE = "Further ed. college"


class Admissions(enum.Enum):
    COMPREHENSIVE = "Comprehensive"
    GRAMMAR = "Grammar"
    SECONDARY_MODERN = "Secondary modern"


class AgeRange(enum.Enum):
    AGE_11_18 = "11-18"
    AGE_11_16 = "11-16"
    AGE_14_18 = "14-18"
    AGE_4_18 = "4-18"
    AGE_4_16 = "4-16"


class SchoolGender(enum.Enum):
    MIXED = "Mixed"
    BOYS = "Boys"
    GIRLS = "Girls"


class Religion(enum.Enum):
    NONE = "None"
    CHURCH_OF_ENGLAND = "Church of England"
    ROMAN_CATHOLIC = "Roman catholic"
    OTHER_CHRISTIAN_FAITH = "Other Christian faith"
    JEWISH = "Jewish"
    MUSLIM = "Muslim"
    SIKH = "Sikh"


def _normalise(text: str) -> str:
    """Fold a category string to its matching key: trim, collapse whitespace,
    drop spaces around slashes, casefold."""
    parts = " ".join(text.split())
    parts = parts.replace(" / ", "/").replace(" /", "/").replace("/ ", "/")
    return parts.casefold()


@functools.cache
def _lookup_table(enum_cls: type[enum.Enum]) -> dict[str, enum.Enum]:
    return {_normalise(member.value): member for member in enum_cls}


def parse_category(enum_cls: type[enum.Enum], text: str) -> enum.Enum:
    """Map a raw CSV string onto a category member.

    Raises ValueError naming the valid spellings when the string does not
    normalise onto any member.
    """
    member = _lookup_table(enum_cls).get(_normalise(text))
    if member is None:
        valid = ", ".join(m.value for m in enum_cls)
        raise ValueError(f"unknown value {text!r}; valid values: {valid}")
    return member


class Kind(enum.Enum):
    """How a column is spelled in CSV and held in memory."""

    ID = "id"  # non-empty string, held as a numpy unicode array
    FLOAT = "float"  # real number within bounds, held as float64
    INT = "int"  # integer within bounds; held as the code value - low bound
    ENUM = "enum"  # closed category set; held as the member's code
    FLAG = "flag"  # 0 or 1; held as that code


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
    category: type[enum.Enum] | None = None
    optional: bool = False

    @functools.cached_property
    def spellings(self) -> tuple[str, ...]:
        """CSV spelling of each code."""
        return ("0", "1") if self.kind is Kind.FLAG else self.levels

    @functools.cached_property
    def values(self) -> tuple:
        """Record value of each code: enum members, ints or bools."""
        if self.kind is Kind.ENUM:
            return tuple(self.category)
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

    def encode(self, text: str):
        """Stored value of one stripped CSV cell; ValueError names the fault."""
        if self.kind is Kind.ID:
            if not text:
                raise ValueError("must not be empty")
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
            return self.values.index(parse_category(self.category, text))
        if text not in self.spellings:
            raise ValueError(f"must be 0 or 1, got {text!r}")
        return self.spellings.index(text)


def _ints(name: str, lo: int, hi: int, **role) -> Field:
    return Field(name, Kind.INT, tuple(str(v) for v in range(lo, hi + 1)), bounds=(lo, hi), **role)


def _enum(name: str, category: type[enum.Enum], **role) -> Field:
    return Field(name, Kind.ENUM, tuple(m.value for m in category), category=category, **role)


PUPIL_FIELDS = (
    Field("pupil_id", Kind.ID),
    Field("school_id", Kind.ID),
    Field("attainment8_total", Kind.FLOAT, bounds=(0.0, 90.0)),
    _ints("ks2_group", 1, 34, reference="1", optional=True),
    _enum("month_of_birth", Month, reference=Month.SEPTEMBER.value),
    _enum("gender", Gender, reference=Gender.MALE.value),
    _enum("ethnicity", Ethnicity, reference=Ethnicity.WHITE_BRITISH.value),
    _enum("first_language", FirstLanguage, reference=FirstLanguage.ENGLISH.value),
    _enum("sen", Sen, reference=Sen.NONE.value),
    Field("fsm", Kind.FLAG, ("Not eligible", "Eligible"), reference="Not eligible", suffix=str.lower),
    _ints("idaci_decile", 1, 10, reference="1"),
)

SCHOOL_FIELDS = (
    Field("school_id", Kind.ID),
    _enum("region", Region),
    _enum("school_type", SchoolType),
    _enum("admissions", Admissions),
    _enum("age_range", AgeRange),
    _enum("school_gender", SchoolGender),
    _enum("religion", Religion),
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
