import numpy as np
import pytest

from vamkit.categories import FIELD
from vamkit.cohort import (
    PUPIL_COLUMNS,
    SCHOOL_COLUMNS,
    csv_bytes,
    parse_pupils,
    parse_schools,
    validate_cohort,
)
from vamkit.synthgen import GeneratorConfig, generate_population

# cells are written as csv writes them: a str as it is, a number by str(),
# None as an empty cell
PUPIL_DEFAULTS = dict(
    attainment8_total=50.0,
    ks2_group=20,
    month_of_birth="September",
    gender="Male",
    ethnicity="White British",
    first_language="English",
    sen="None",
    fsm=0,
    idaci_decile=5,
)

SCHOOL_DEFAULTS = dict(
    region="London",
    school_type="Community",
    admissions="Comprehensive",
    age_range="11-18",
    school_gender="Mixed",
    religion="None",
    school_idaci_decile=5,
)


def make_pupil(pupil_id, school_id, **cells):
    """One pupils.csv row, by column name."""
    return {"pupil_id": pupil_id, "school_id": school_id, **PUPIL_DEFAULTS, **cells}


def make_school(school_id, **cells):
    """One schools.csv row, by column name."""
    return {"school_id": school_id, **SCHOOL_DEFAULTS, **cells}


def _parse_clean(parse, columns, rows):
    cells = [["" if row[c] is None else str(row[c]) for row in rows] for c in columns]
    table, issues = parse(csv_bytes(columns, cells))
    assert issues == []
    return table


def make_cohort(pupils, schools):
    """The validated cohort of pupils.csv and schools.csv holding these rows."""
    return validate_cohort(
        _parse_clean(parse_pupils, PUPIL_COLUMNS, pupils),
        _parse_clean(parse_schools, SCHOOL_COLUMNS, schools),
    )


def random_cohort(seed, n_schools=6, pupils_per_school=25):
    """Small hand-rolled random cohort, independent of the synthetic generator."""
    rng = np.random.default_rng(seed)
    schools = [make_school(f"S{i:03d}", school_idaci_decile=int(rng.integers(1, 11)))
               for i in range(n_schools)]
    pupils = []
    months = FIELD["month_of_birth"].levels
    ethnicities = FIELD["ethnicity"].levels
    sens = FIELD["sen"].levels
    pid = 0
    for school in schools:
        for _ in range(pupils_per_school):
            pid += 1
            pupils.append(
                make_pupil(
                    f"P{pid:05d}",
                    school["school_id"],
                    attainment8_total=float(np.round(rng.uniform(5.0, 85.0), 4)),
                    ks2_group=int(rng.integers(1, 35)),
                    month_of_birth=months[rng.integers(0, 12)],
                    gender="Female" if rng.random() < 0.5 else "Male",
                    ethnicity=ethnicities[rng.integers(0, len(ethnicities))],
                    first_language="Other" if rng.random() < 0.15 else "English",
                    sen=sens[rng.integers(0, 3)],
                    fsm=int(rng.random() < 0.3),
                    idaci_decile=int(rng.integers(1, 11)),
                )
            )
    return make_cohort(pupils, schools)


@pytest.fixture(scope="session")
def midsize_population():
    """Shared mid-size synthetic population (fast, all category levels likely present)."""
    return generate_population(GeneratorConfig(n_schools=80, school_size_range=(60, 120), seed=20160901))
