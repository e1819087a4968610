"""Dummy-coded design matrices for the four measure specifications.

Every design has a leading all-ones "constant" column. Each categorical
covariate contributes (levels - 1) indicator columns against a fixed
reference category, which has no column. Category levels absent from a
cohort still get their (all-zero) column so that coefficient labels are
stable across cohorts; the least-squares rank guard prunes them.

Covariate block order: prior attainment group, month of birth, gender,
ethnicity, first language, SEN, FSM, neighbourhood deprivation decile.

A design keeps each block's integer code column, not the N x k indicator
array. Every entry of X'X is a count of pupils at two levels (exact in
integers), and every design's columns are levels of the same eight
covariates. So a cohort keeps one cross-tab of counts over the constant and
every covariate level, and each design's X'X is that table at its columns'
levels; each pair of covariates is counted once per cohort, when a design
first asks for it. Every measure's outcome is the cohort's own
``attainment8_total``, so beside the cross-tab the cohort keeps that
outcome's sum at every level, each block's summed once per cohort, and a
design's X'y of the outcome is that vector at its columns' levels. The X'y
of any other vector and the per-cluster sums X_g'e are bincounts, and X beta
gathers one coefficient per level.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .categories import PUPIL_FIELDS, Field, ModelSpec
from .categories import MeasureKind  # noqa: F401  (its old import path)
from .cohort import ValidatedCohort, decode_ids
from .errors import DesignError, id_list


# Rows per run of sequential additions in _Block.sums.
_RUN = 256
# Rows per run of gathers in DesignMatrix.predict.
_GATHER = 16384

_PRIOR = "ks2_group"
_COVARIATES = tuple(f for f in PUPIL_FIELDS if f.reference is not None)
# Each covariate's first level in the level cross-tab, after the constant's
# level 0, and the number of levels (86).
*_FIRST, _N_LEVELS = itertools.accumulate([1] + [len(f.levels) for f in _COVARIATES])
_START = dict(zip([f.name for f in _COVARIATES], _FIRST))


@dataclass(frozen=True)
class _Block:
    """One dummy block: each row's level code and the level -> column map.

    Level ``coded[i]`` has design column ``columns[i]``; a level not listed
    (a covariate's reference) has none. The constant is the block with one
    level, code 0 on every row. Level ``i`` is level ``start + i`` of the
    cohort's level cross-tab (:class:`_LevelCounts`).
    """

    codes: np.ndarray
    levels: int
    coded: np.ndarray
    columns: np.ndarray
    start: int

    def bins(self, major: np.ndarray) -> np.ndarray:
        """Each row's flat bin in a (major index, own level) table."""
        keys = major.astype(np.intp)
        keys *= self.levels
        keys += self.codes
        return keys

    def sums(self, weights: np.ndarray) -> np.ndarray:
        """Sum of ``weights`` over each level's rows.

        Rows are added in order within runs of _RUN rows and the run sums
        pairwise, so the rounding error grows with _RUN + log2(runs), not
        with the level's row count. A plain bincount's error grows with the
        cohort, and the normal equations recover the reference level's sum
        as the total minus the other levels: at national size that is about
        1e-9 points of error in the progress coefficients, against 2e-12
        this way.
        """
        runs = -(-self.codes.size // _RUN)
        # key = code * runs + row // _RUN, built in place: whole runs as a
        # (run, row) view, then the last, partial run
        keys = self.codes.astype(np.intp)
        keys *= runs
        whole = keys.size // _RUN
        keys[: whole * _RUN].reshape(whole, _RUN)[...] += np.arange(whole)[:, None]
        keys[whole * _RUN :] += whole
        table = np.bincount(keys, weights=weights, minlength=self.levels * runs)
        return table.reshape(self.levels, runs).sum(axis=1)


class _LevelCounts:
    """One cohort's cross-tab of levels, counted one pair of blocks at a time,
    and its outcome's sum at each level.

    ``table[i, j]`` is the number of pupils at both level i and level j: level
    0 is the constant, and each covariate's levels follow from its block's
    ``start``. A block's level counts fill its diagonal block and its row and
    column against the constant; a pair of covariates fills their cross-tab.
    ``outcome[i]`` is the sum of the cohort's outcome over the pupils at level
    i, filled a block at a time by ``_Block.sums``. Each is counted the first
    time a design asks for it. The table is 86 x 86 floats (~60 KB), exact
    for counts below 2**53, and nothing of pupil length is kept: the outcome
    is handed in by the design that asks. So the outcome column must not
    change once a design has read its X'y; the generator writes it in place
    before any design does.
    """

    def __init__(self, n: int):
        self.table = np.zeros((_N_LEVELS, _N_LEVELS))
        self.table[0, 0] = n
        self._counted = {(0, 0)}
        self.outcome = np.zeros(_N_LEVELS)
        self._summed: set[int] = set()

    def levels(self, b: _Block) -> np.ndarray:
        """The number of pupils at each of b's levels."""
        own = slice(b.start, b.start + b.levels)
        if (b.start, b.start) not in self._counted:
            counts = np.bincount(b.codes, minlength=b.levels)
            diagonal = np.arange(own.start, own.stop)
            self.table[diagonal, diagonal] = counts
            self.table[0, own] = self.table[own, 0] = counts
            self._counted |= {(0, b.start), (b.start, b.start)}
        return self.table[0, own]

    def pair(self, a: _Block, b: _Block) -> None:
        """Count the cross-tab of a's and b's levels, if it is not counted yet."""
        if (a.start, b.start) in self._counted:
            return
        counts = np.bincount(b.bins(a.codes), minlength=a.levels * b.levels)
        counts = counts.reshape(a.levels, b.levels)
        rows, cols = slice(a.start, a.start + a.levels), slice(b.start, b.start + b.levels)
        self.table[rows, cols] = counts
        self.table[cols, rows] = counts.T
        self._counted.add((a.start, b.start))

    def outcome_sums(self, b: _Block, y: np.ndarray) -> None:
        """Sum the outcome ``y`` over b's levels, if they are not summed yet."""
        if b.start not in self._summed:
            self.outcome[b.start : b.start + b.levels] = b.sums(y)
            self._summed.add(b.start)


class DesignMatrix:
    """N x k dummy design with stable column labels, held as code columns.

    Each dummy block keeps one integer code column, never the N x k
    indicator array. Every statistic a least-squares fit and its clustered
    covariance need (``gram``, ``xty``, ``predict`` and ``cluster_sums``)
    comes from counts and bincounts over the codes, and ``gram`` and the
    outcome's ``xty`` from the cohort's level store; ``values`` builds the
    indicator array only when it is read.
    """

    def __init__(
        self,
        column_labels: tuple[str, ...],
        blocks: tuple[_Block, ...],
        counts: _LevelCounts,
        outcome: np.ndarray,
    ):
        self.column_labels = tuple(column_labels)
        self._blocks = blocks
        self._counts = counts
        # the cohort's outcome column, whose level sums ``counts`` keeps
        self._outcome = outcome
        # each column's level in the cross-tab (blocks hold consecutive columns)
        self._levels = np.concatenate([b.start + b.coded for b in blocks])

    @property
    def n(self) -> int:
        return self._blocks[0].codes.size

    @property
    def k(self) -> int:
        return len(self.column_labels)

    @property
    def values(self) -> np.ndarray:
        """The N x k indicator array, built anew on each read."""
        out = np.zeros((self.n, self.k))
        for b in self._blocks:
            out[:, b.columns] = b.codes[:, None] == b.coded
        return out

    def gram(self) -> np.ndarray:
        """X'X: the cohort's level cross-tab at the design columns' levels.

        The pairs of blocks the cohort has not counted yet are counted first;
        each block's own levels were counted when the design was built.
        """
        for i, a in enumerate(self._blocks):
            for b in self._blocks[i + 1 :]:
                self._counts.pair(a, b)
        return self._counts.table[np.ix_(self._levels, self._levels)]

    def xty(self, y: np.ndarray) -> np.ndarray:
        """X'y: for each column, the sum of y over the rows where it is 1.

        For the cohort's own outcome column it is the cohort's outcome level
        sums at the columns' levels, each block's summed once per cohort;
        any other y is summed block by block. Both sum by ``_Block.sums``,
        so they agree bit for bit.
        """
        if y is self._outcome:
            for b in self._blocks:
                self._counts.outcome_sums(b, y)
            return self._counts.outcome[self._levels]
        out = np.zeros(self.k)
        for b in self._blocks:
            out[b.columns] = b.sums(y)[b.coded]
        return out

    def predict(self, beta: np.ndarray) -> np.ndarray:
        """X beta, given a coefficient for every design column.

        beta is scattered once by level (0 at a reference level). Then, a
        run of _GATHER rows at a time, each block adds its rows' level
        coefficients, gathered by ``take``. ``take`` of int8 codes is faster
        than indexing by them but first widens the codes it is given to
        intp, so the runs keep that copy, and the gathered values, small.
        """
        by_level = np.zeros(_N_LEVELS)
        by_level[self._levels] = beta
        out = np.zeros(self.n)
        for start in range(0, self.n, _GATHER):
            rows = slice(start, start + _GATHER)
            part = out[rows]
            for b in self._blocks:
                part += by_level[b.start : b.start + b.levels].take(b.codes[rows])
        return out

    def cluster_sums(self, e: np.ndarray, cluster: np.ndarray, n_clusters: int) -> np.ndarray:
        """G x k sums X_g'e_g, where ``cluster`` numbers each row's cluster 0..G-1."""
        out = np.zeros((n_clusters, self.k))
        for b in self._blocks:
            sums = np.bincount(b.bins(cluster), weights=e, minlength=n_clusters * b.levels)
            out[:, b.columns] = sums.reshape(n_clusters, b.levels)[:, b.coded]
        return out


def _fields(spec: ModelSpec) -> tuple[Field, ...]:
    """The covariate fields a spec adjusts for, in design-block order."""
    return tuple(
        f
        for f in _COVARIATES
        if (spec.include_prior_attainment if f.name == _PRIOR else spec.include_background)
    )


def design_labels(spec: ModelSpec) -> tuple[str, ...]:
    """Deterministic column labels for a model spec (cohort-independent)."""
    return ("constant",) + tuple(label for f in _fields(spec) for label in f.design_labels)


def build_design_matrix(cohort: ValidatedCohort, spec: ModelSpec) -> DesignMatrix:
    """Build the dummy design for a cohort under a model spec.

    Fatal if the spec adjusts for prior attainment and any pupil lacks a
    ks2_group. Category levels with no pupils produce all-zero columns and a
    warning; they are pruned later by the estimation rank guard.
    """
    pupils = cohort.pupil_table
    fields = _fields(spec)
    if spec.include_prior_attainment:
        missing = decode_ids(pupils["pupil_id"][pupils[_PRIOR] < 0])
        if missing:
            raise DesignError(
                "model adjusts for prior attainment but ks2_group is missing "
                f"for pupils: {id_list(missing)}"
            )

    n = cohort.n_pupils
    store = cohort._level_counts  # filled only here
    if not store:
        store["counts"] = _LevelCounts(n)
    counts = store["counts"]
    constant = _Block(np.zeros(n, dtype=np.int8), 1, np.array([0]), np.array([0]), 0)
    design_blocks = [constant]
    empty: list[str] = []
    column = 1
    for f in fields:
        coded = np.array(f.design_codes)
        columns = np.arange(column, column + coded.size)
        block = _Block(pupils[f.name], len(f.levels), coded, columns, _START[f.name])
        design_blocks.append(block)
        level_counts = counts.levels(block)
        empty += [lab for c, lab in zip(f.design_codes, f.design_labels) if not level_counts[c]]
        column += coded.size

    if empty:
        warnings.warn(
            f"category level(s) absent from cohort (all-zero columns): {', '.join(empty)}",
            stacklevel=2,
        )
    return DesignMatrix(
        design_labels(spec), tuple(design_blocks), counts, pupils["attainment8_total"]
    )

