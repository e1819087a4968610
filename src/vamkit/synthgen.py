"""Seeded synthetic cohort generator with known true school effects.

Produces schema-compatible pupil/school files so the whole pipeline can be
exercised and validated without confidential pupil-level data. Category
frequencies default to the published 2016 national cohort distributions
(502,851 pupils in 3,098 schools), and the default data-generating
coefficients are the published national estimates of the fully adjusted
model, so refitting a generated population recovers a known truth.

Dependence structure: a single school-level deprivation latent drives pupil
free-school-meal status, deprivation decile and (negatively) prior
attainment. ``intake_gradient`` in [0, 1] is the correlation between the
school latent and the pupil-level deprivation latent: 0 gives exchangeable
schools, values near 1 give strongly sorted intakes. Ethnicity, month of
birth, gender, language and SEN are drawn independently of school from the
national marginals, keeping the generator auditable. This is a modelling
choice, not an empirical claim.

Each pupil's outcome is: linear predictor from the coefficient table
+ the school's true effect + Gaussian noise, clipped to [0, 90]. The same
seed always produces bitwise-identical output.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .categories import FIELD, PUPIL_FIELDS, SCHOOL_FIELDS, Kind, ModelSpec
from .cohort import Table, ValidatedCohort, decode_ids, serialize_blocks, validate_cohort
from .csvio import csv_bytes
from .design import build_design_matrix, design_labels
from .errors import GeneratorError

# National 2016 counts per level, in code order: pupils for pupil fields,
# schools for school fields.
NATIONAL_COUNTS = {
    "ks2_group": (
        960, 1164, 7692, 3133, 2413, 2417, 3287, 3359, 4757, 5228,
        6357, 7499, 8337, 10041, 12033, 13679, 16026, 19589, 23473, 25852,
        29549, 30450, 30669, 31371, 30990, 29952, 28983, 27346, 24938, 21913,
        18167, 12225, 6505, 2497,
    ),
    "month_of_birth": (
        43346, 41981, 41113, 42700, 42124, 38949, 42158, 40458, 42601, 40983, 43493, 42945,
    ),
    "gender": (253733, 249118),
    "ethnicity": (
        380949, 1606, 104, 659, 17129, 14379, 6650, 2690, 12426, 18722,
        7709, 6900, 1585, 2390, 6873, 4656, 6983, 6198, 2098, 2145,
    ),
    "first_language": (438585, 64266),
    "sen": (436229, 55601, 11021),
    "region": (431, 474, 309, 373, 447, 152, 298, 269, 345),
    "school_type": (538, 275, 273, 34, 3, 560, 1320, 27, 30, 26, 12),
    "admissions": (2819, 162, 117),
    "age_range": (1881, 971, 135, 83, 28),
    "school_gender": (2738, 151, 209),
    "religion": (2524, 176, 310, 68, 11, 8, 1),
}
FSM_ELIGIBLE_SHARE = 133704 / 502851

# Pupil-level correlation between the deprivation latent and the prior
# attainment latent (negative link: more deprived, lower attainment).
_DEPRIVATION_ATTAINMENT_LINK = 0.45

# Published national estimates for the fully adjusted model (points scale),
# used as the default data-generating truth.
_KS2_COEFS = (
    5.52, 6.73, 7.71, 9.29, 9.86, 10.84, 11.67, 13.04, 13.63, 14.75,
    16.03, 17.22, 18.48, 20.09, 21.24, 22.72, 24.18, 25.86, 27.38, 28.89,
    30.76, 32.53, 34.40, 36.18, 37.87, 39.94, 41.92, 43.93, 46.11, 48.27,
    50.69, 52.90, 54.91,
)
_MONTH_COEFS = (0.15, 0.35, 0.42, 0.59, 0.78, 0.99, 1.12, 1.21, 1.30, 1.49, 1.62)
_ETHNICITY_COEFS = (
    2.02, -6.92, -5.63, 3.90, 5.42, 1.80, 3.75, 4.16, 1.93, 4.49,
    4.71, 6.26, 2.46, 0.04, 2.08, 2.32, 5.67, -0.14, 1.36,
)
_IDACI_COEFS = (-0.22, -0.79, -1.28, -1.87, -2.66, -2.99, -3.43, -3.82, -4.52)

_AP8_LABELS = design_labels(ModelSpec(include_prior_attainment=True, include_background=True))

DEFAULT_COEFFICIENTS: dict[str, float] = dict(
    zip(
        _AP8_LABELS,
        (19.74,)
        + _KS2_COEFS
        + _MONTH_COEFS
        + (2.44,)
        + _ETHNICITY_COEFS
        + (2.55,)
        + (-4.42, -6.88)
        + (-4.01,)
        + _IDACI_COEFS,
    )
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the synthetic population.

    ``noise_sd`` defaults so the fully adjusted model's adjusted R-squared
    on a generated default population is about 0.62, matching the national
    benchmark. ``true_school_effect_sd`` defaults to 3.5 points (0.35 grades
    per subject, the national school-score SD of the fully adjusted
    measure).
    """

    n_schools: int = 300
    school_size_range: tuple[int, int] = (100, 200)
    true_school_effect_sd: float = 3.5
    noise_sd: float = 9.2
    coefficient_set: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_COEFFICIENTS)
    )
    intake_gradient: float = 0.6
    seed: int = 0


@dataclass(frozen=True)
class SyntheticCohort:
    """A validated cohort plus the generating truth."""

    cohort: ValidatedCohort
    true_school_effects: dict[str, float]
    n_clipped: int


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float that is finite; an int too large for a float is not."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def dgp_from_coefficients(table: Mapping[str, float]) -> dict[str, dict[str, float]]:
    """Validate a coefficient table as generating truth.

    Returns a config fragment ``{"coefficient_set": full_table}`` with every
    design label present; labels missing from the input default to 0 with a
    warning, unknown labels are fatal.
    """
    if not isinstance(table, Mapping):
        raise GeneratorError("coefficient table must map design labels to numbers")
    unknown = sorted(set(table) - set(_AP8_LABELS))
    if unknown:
        raise GeneratorError(f"unknown coefficient label(s): {', '.join(unknown)}")
    bad = [lab for lab, value in table.items() if not _is_number(value)]
    if bad:
        raise GeneratorError(f"coefficient(s) must be finite numbers: {', '.join(bad)}")
    missing = [lab for lab in _AP8_LABELS if lab not in table]
    if missing:
        warnings.warn(
            f"{len(missing)} coefficient label(s) missing from table; defaulting to 0",
            stacklevel=2,
        )
    full = {lab: float(table.get(lab, 0.0)) for lab in _AP8_LABELS}
    return {"coefficient_set": full}


_INT64_MAX = np.iinfo(np.int64).max


def _check_config(config: GeneratorConfig) -> None:
    for name in ("n_schools", "seed"):
        if not _is_int(getattr(config, name)):
            raise GeneratorError(f"{name} must be an integer, got {getattr(config, name)!r}")
    for name in ("true_school_effect_sd", "noise_sd", "intake_gradient"):
        if not _is_number(getattr(config, name)):
            raise GeneratorError(f"{name} must be a finite number, got {getattr(config, name)!r}")
    sizes = config.school_size_range
    if not (isinstance(sizes, tuple) and len(sizes) == 2 and all(map(_is_int, sizes))):
        raise GeneratorError(f"school_size_range must be two integers, got {sizes!r}")
    lo, hi = sizes
    if config.seed < 0:
        raise GeneratorError(f"seed must be nonnegative, got {config.seed}")
    if config.n_schools < 1:
        raise GeneratorError(f"n_schools must be >= 1, got {config.n_schools}")
    if lo < 1 or hi < lo:
        raise GeneratorError(f"school_size_range must be 1 <= lo <= hi, got ({lo}, {hi})")
    # numpy draws and counts them as int64
    if config.n_schools > _INT64_MAX:
        raise GeneratorError(f"n_schools must be at most {_INT64_MAX}, got {config.n_schools}")
    if hi > _INT64_MAX:
        raise GeneratorError(f"school_size_range must be at most {_INT64_MAX}, got ({lo}, {hi})")
    if config.true_school_effect_sd < 0 or config.noise_sd < 0:
        raise GeneratorError("effect and noise SDs must be nonnegative")
    if not 0.0 <= config.intake_gradient <= 1.0:
        raise GeneratorError(
            f"intake_gradient must be in [0, 1], got {config.intake_gradient}"
        )


def _shares(counts) -> np.ndarray:
    arr = np.asarray(counts, dtype=float)
    return arr / arr.sum()


def _draw(rng, fields, size: int) -> dict[str, np.ndarray]:
    """Codes of every enum field, drawn independently from the national counts."""
    return {
        f.name: rng.choice(len(f.levels), size=size, p=_shares(NATIONAL_COUNTS[f.name]))
        .astype(np.int8)
        for f in fields
        if f.kind is Kind.ENUM
    }


def _cut_points() -> tuple[np.ndarray, np.ndarray, float]:
    """Standard-normal quantiles: the IDACI decile cuts, the KS2 group cuts
    at the national shares, and the quantile of the FSM share.

    ``statistics`` is imported here: with its decimal and fractions imports
    it would add about 0.5 MB and 5 ms to every CLI process, and only the
    generator needs it.
    """
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf
    n = len(FIELD["idaci_decile"].levels)
    ks2_shares = np.cumsum(_shares(NATIONAL_COUNTS["ks2_group"]))[:-1]
    deciles = np.array([inv_cdf(k / n) for k in range(1, n)])
    ks2 = np.array([inv_cdf(float(p)) for p in ks2_shares])
    return deciles, ks2, inv_cdf(FSM_ELIGIBLE_SHARE)


def _codes(cuts: np.ndarray, latent: np.ndarray) -> np.ndarray:
    """Each latent's code: the number of cuts at or below it."""
    return np.searchsorted(cuts, latent, side="right").astype(np.int8)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Phi(z) elementwise, as 0.5 * erfc(-z / sqrt(2))."""
    scaled = (z / -math.sqrt(2.0)).tolist()
    return 0.5 * np.fromiter(map(math.erfc, scaled), dtype=np.float64, count=len(scaled))


def _ids(prefix: str, n: int, width: int) -> np.ndarray:
    """prefix + 1..n, zero-padded to ``width`` digits or to n's if more: an
    ASCII bytes array built from its bytes, one digit column at a time."""
    size = len(prefix) + max(width, len(str(n)))
    codes = np.empty((n, size), dtype=np.uint8)
    codes[:, : len(prefix)] = list(prefix.encode())
    number = np.arange(1, n + 1, dtype=np.int32 if n < 2**31 else np.int64)
    for j in range(size - 1, len(prefix) - 1, -1):
        number, digit = np.divmod(number, 10)
        codes[:, j] = digit + ord("0")
    return codes.view(f"S{size}").reshape(n)


def generate_population(config: GeneratorConfig) -> SyntheticCohort:
    """Generate a synthetic cohort; deterministic for a given seed."""
    _check_config(config)
    coefficients = dgp_from_coefficients(config.coefficient_set)["coefficient_set"]
    rng = np.random.default_rng(config.seed)
    decile_cuts, ks2_cuts, fsm_quantile = _cut_points()

    n_schools = config.n_schools
    school_ids = _ids("S", n_schools, 4)

    lo, hi = config.school_size_range
    sizes = rng.integers(lo, hi + 1, size=n_schools)
    schools = _draw(rng, SCHOOL_FIELDS, n_schools)

    # School deprivation latent: drives the school decile and, weighted by
    # the intake gradient, every pupil-level deprivation draw.
    dep_latent = rng.standard_normal(n_schools)
    schools["school_idaci_decile"] = _codes(decile_cuts, dep_latent)
    schools["school_id"] = school_ids
    true_effects = rng.normal(0.0, config.true_school_effect_sd, n_schools)

    n_total = int(sizes.sum())
    school_idx = np.repeat(np.arange(n_schools), sizes)

    grad = config.intake_gradient
    pupil_dep = grad * dep_latent[school_idx] + np.sqrt(1.0 - grad * grad) * rng.standard_normal(n_total)
    idaci = _codes(decile_cuts, pupil_dep)

    # Probit link calibrated so the FSM marginal matches the national share
    # whatever the gradient (the pupil latent is standard normal).
    fsm_intercept = fsm_quantile * math.sqrt(2.0)
    fsm = rng.random(n_total) < _normal_cdf(fsm_intercept + pupil_dep)

    link = _DEPRIVATION_ATTAINMENT_LINK
    ability = -link * pupil_dep + np.sqrt(1.0 - link * link) * rng.standard_normal(n_total)

    pupils = _draw(rng, PUPIL_FIELDS, n_total)
    noise = rng.normal(0.0, config.noise_sd, n_total)
    pupils.update(
        pupil_id=_ids("P", n_total, 6),
        school_id=school_ids[school_idx],
        attainment8_total=np.zeros(n_total),
        ks2_group=_codes(ks2_cuts, ability),
        fsm=fsm.astype(np.int8),
        idaci_decile=idaci,
    )

    cohort = validate_cohort(Table(PUPIL_FIELDS, pupils), Table(SCHOOL_FIELDS, schools))
    design = build_design_matrix(
        cohort, ModelSpec(include_prior_attainment=True, include_background=True)
    )
    beta = np.array([coefficients[lab] for lab in design.column_labels])
    raw = design.predict(beta) + true_effects[school_idx] + noise
    outcome = cohort.pupil_table["attainment8_total"]  # in place: nothing else holds the cohort yet
    np.clip(raw, *FIELD["attainment8_total"].bounds, out=outcome)
    n_clipped = int(np.sum(outcome != raw))
    truth = dict(zip(decode_ids(school_ids), true_effects.tolist()))
    return SyntheticCohort(cohort=cohort, true_school_effects=truth, n_clipped=n_clipped)


def serialize_truth(synthetic: SyntheticCohort) -> bytes:
    """truth.csv bytes: school_id, true_effect_points."""
    effects = synthetic.true_school_effects
    ids = sorted(effects)
    return csv_bytes(["school_id", "true_effect_points"], [ids, [repr(effects[s]) for s in ids]])


def write_population_csv(synthetic: SyntheticCohort) -> dict[str, Iterator[bytes]]:
    """The three output files of a simulation run, keyed by file name, each
    as pieces of its bytes; a cohort file's pieces are made a block of rows
    at a time as they are read, so it need not be held whole."""
    return {
        "pupils.csv": serialize_blocks(synthetic.cohort.pupil_table),
        "schools.csv": serialize_blocks(synthetic.cohort.school_table),
        "truth.csv": iter([serialize_truth(synthetic)]),
    }
