"""The paper's claims, audited against a synthetic cohort's known truth.

For each measure fitted on one generated cohort, against the generator's
true school effects (in grades, points / 10, centred on their mean over
schools):

- ``r_truth``: Pearson r of the school scores with the truth;
- ``r_error_fsm`` and ``r_error_ks2``: Pearson r of each school's error
  (score - truth) with its intake, the school's FSM share and its mean KS2
  group code;
- ``coverage``: the share of schools whose 95% CI holds the truth, overall
  and in each quintile of FSM share and of mean KS2 group (schools sorted
  by the intake measure, ties by ``school_id``, cut into five groups of
  equal count);
- ``false_flags``: schools flagged significantly above with a truth at or
  below 0, or significantly below with a truth at or above 0.

``test_paper_claims.py`` bounds these on the default cohort. Run as a
script, it prints the table for a generated cohort of any size and seed:

    PYTHONPATH=src python tests/paper_audit.py --schools 300 --seed 612
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from vamkit.categories import MeasureKind, SignificanceCategory
from vamkit.cohort import decode_ids
from vamkit.measures import POINTS_PER_GRADE, compute_measure
from vamkit.synthgen import GeneratorConfig, generate_population

QUINTILES = 5


@dataclass(frozen=True)
class MeasureAudit:
    r_truth: float
    r_error_fsm: float
    r_error_ks2: float
    coverage: float
    coverage_by_fsm_quintile: tuple[float, ...]
    coverage_by_ks2_quintile: tuple[float, ...]
    false_flags: int


def _r(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.corrcoef(x, y)[0, 1])


def quintiles(intake: np.ndarray) -> list[np.ndarray]:
    """Five groups of school positions of equal count, lowest intake first;
    as positions follow ``school_id``, a stable sort breaks ties by it."""
    return np.array_split(np.argsort(intake, kind="stable"), QUINTILES)


def audit(config: GeneratorConfig) -> dict[MeasureKind, MeasureAudit]:
    """Each measure's audit row on the cohort ``config`` generates."""
    synthetic = generate_population(config)
    cohort = synthetic.cohort
    ids = decode_ids(cohort.school_table["school_id"])
    truth = np.array([synthetic.true_school_effects[s] for s in ids]) / POINTS_PER_GRADE
    truth -= truth.mean()

    # each school's intake, in school_table (school_id) order
    school = cohort.school_index
    n_pupils = np.bincount(school, minlength=len(ids))
    fsm_share = np.bincount(school, weights=cohort.pupil_table["fsm"], minlength=len(ids)) / n_pupils
    ks2 = cohort.pupil_table["ks2_group"]
    known = ks2 >= 0
    mean_ks2 = np.bincount(school[known], weights=ks2[known], minlength=len(ids)) / np.bincount(
        school[known], minlength=len(ids)
    )
    by_fsm, by_ks2 = quintiles(fsm_share), quintiles(mean_ks2)

    out = {}
    for kind in MeasureKind:
        columns = compute_measure(cohort, kind).school_columns
        if columns["school_id"] != ids:
            raise ValueError("every school must have pupils")
        score = np.array(columns["score"])
        covered = (np.array(columns["ci_low"]) <= truth) & (truth <= np.array(columns["ci_high"]))
        category = np.array(columns["category"])
        false_above = (category == SignificanceCategory.SIGNIFICANTLY_ABOVE) & (truth <= 0.0)
        false_below = (category == SignificanceCategory.SIGNIFICANTLY_BELOW) & (truth >= 0.0)
        out[kind] = MeasureAudit(
            r_truth=_r(score, truth),
            r_error_fsm=_r(score - truth, fsm_share),
            r_error_ks2=_r(score - truth, mean_ks2),
            coverage=float(covered.mean()),
            coverage_by_fsm_quintile=tuple(float(covered[q].mean()) for q in by_fsm),
            coverage_by_ks2_quintile=tuple(float(covered[q].mean()) for q in by_ks2),
            false_flags=int(false_above.sum() + false_below.sum()),
        )
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schools", type=int, default=300)
    parser.add_argument("--seed", type=int, default=612)
    args = parser.parse_args()
    rows = audit(GeneratorConfig(n_schools=args.schools, seed=args.seed))
    print(f"{args.schools} schools, seed {args.seed}")
    print("coverage by quintile runs from the lowest intake to the highest")
    print(
        "measure  r_truth  r_err_fsm  r_err_ks2  coverage  by FSM quintile          "
        "by KS2 quintile          false_flags"
    )
    for kind, row in rows.items():
        by_fsm = " ".join(f"{c:.2f}" for c in row.coverage_by_fsm_quintile)
        by_ks2 = " ".join(f"{c:.2f}" for c in row.coverage_by_ks2_quintile)
        print(
            f"{kind.code:<7}  {row.r_truth:7.3f}  {row.r_error_fsm:+9.3f}  {row.r_error_ks2:+9.3f}"
            f"  {row.coverage:8.3f}  {by_fsm:<23}  {by_ks2:<23}  {row.false_flags:11d}"
        )


if __name__ == "__main__":
    main()
