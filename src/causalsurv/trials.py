"""Transformation between a survival study and per-day binary-outcome trials.

Forward: a cohort with survival times becomes a family of daily trials, one
per day i in 0..t_max, with outcome "alive at day i".  A subject is dead at
day i exactly when their event occurred at or before i; censored subjects
count as alive on every day (their event was never observed).  That is the
contract, and it overstates survival when censoring is heavy; the strict
mode in :mod:`causalsurv.cohort` is the opt-in alternative.

A subject's whole row of daily outcomes is fixed by their arm, stratum,
last follow-up day and event flag, so the trials are held as one count
table over those four: the number alive in an (arm, stratum) cell at day i
is the cell's size minus its deaths on days up to i.  The table has one
column per distinct follow-up day, the cohort's ``days``, and a subject's
column is its day code, so no stage after ingest sorts the times again;
its size scales with the number of distinct days, not with t_max or the
number of subjects.  A stratum is an index into the covariates' level
product, last covariate fastest, that only this module decodes; past n
strata no table is built.

Backward: per-arm per-day adjusted survival counts are turned back into a
pseudo-cohort, the same kind of table with one stratum on the curve's day
grid: its deaths fall on the first day each count drops and its survivors
are censored at the horizon.  Every stage after identification reads one
of these tables: the adjusted curve, both Kaplan-Meier curves and all
three Cox fits.
"""

import math
from typing import NamedTuple

import numpy as np

from .cohort import CohortDataset
from .errors import NonMonotoneCounts, PositivityViolation, UnknownCovariate

__all__ = ["DailyTrials", "to_daily_trials", "from_adjusted_counts"]


def _level_codes(stratum, levels):
    """Each covariate's level code in ``stratum``, an int or an int64 array of indices."""
    codes = []
    for ls in reversed(levels):
        stratum, code = divmod(stratum, len(ls))
        codes.append(code)
    return codes[::-1]


def require_positivity(sizes, levels):
    """Raise :class:`PositivityViolation` at the first zero of ``sizes[arm, stratum]``.

    Cells are scanned stratum by stratum, arm 0 first.
    """
    empty = np.argwhere(sizes.T == 0)
    if empty.size:
        stratum, arm = empty[0].tolist()
        codes = _level_codes(stratum, levels)
        raise PositivityViolation(arm, [ls[c] for ls, c in zip(levels, codes)])


class DailyTrials(NamedTuple):
    """The daily trials as subjects per (arm, stratum, day, event) cell.

    ``counts[arm, s, g, e]`` is the number of subjects in arm ``arm`` and
    stratum ``s`` whose follow-up ends on day ``days[g]`` with event flag
    ``e``.  ``levels`` holds the sorted level tuple of each of the sorted
    ``covariates``, and stratum ``s`` is the ``s``-th combination of their
    product.  ``days`` ascend, and the last is t_max.  Two tables are
    equal only when they are the same object, and hash by identity.
    """

    covariates: tuple[str, ...]
    levels: tuple[tuple[str, ...], ...]
    days: np.ndarray
    counts: np.ndarray  # int64, shape (2, strata, len(days), 2)

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def pooled(self) -> "DailyTrials":
        """The same subjects as one stratum, with no covariates."""
        return DailyTrials((), (), self.days, self.counts.sum(axis=1, keepdims=True))

    def cells(self):
        """Occupied cells as count rows: arm, stratum, day, event and count arrays.

        Rows come in the order the Cox fitter takes distinct rows in, so it
        sorts none: by day, then event, then arm, then stratum, with strata
        in the byte order of their float64 dummy rows.  For 0/1 values that
        is the order of the dummy rows read left to right, so a covariate's
        level 2, with dummies (0, 1), comes before its level 1, (1, 0).
        """
        rank = np.arange(self.counts.shape[1])
        if rank.size > 1:  # one stratum has no dummy columns to rank by
            rank = np.lexsort(np.column_stack(self.dummies(rank)).T[::-1])
        ranked = self.counts[:, rank]
        g, event, arm, s = ranked.transpose(2, 3, 0, 1).nonzero()
        return arm, rank[s], self.days[g], event, ranked[arm, s, g, event]

    def dummies(self, stratum) -> list[np.ndarray]:
        """0/1 column blocks of each covariate's levels but the first, per stratum index."""
        codes = _level_codes(stratum, self.levels)
        return [c[:, None] == np.arange(1, len(ls)) for c, ls in zip(codes, self.levels)]


def require_strata_at_most(cohort: CohortDataset, covariates, most: int) -> tuple:
    """Level tuples of the sorted ``covariates``; :class:`PositivityViolation` past ``most`` strata.

    ``most`` must be at least the smaller arm's size.  An arm with fewer
    subjects than there are strata leaves a stratum below n empty, and
    stratum indices capped at n are exact below it, so they find the first
    empty cell with no table filled.
    """
    covs = tuple(sorted(covariates))
    for c in covs:
        if c not in cohort.covariate_levels:
            raise UnknownCovariate(f"unknown covariate {c!r}")
    levels = tuple(cohort.covariate_levels[c] for c in covs)
    if math.prod(len(ls) for ls in levels) > most:
        stratum = np.zeros(cohort.n, dtype=np.int64)
        for c, ls in zip(covs, levels):
            stratum = np.minimum(stratum * len(ls) + cohort.codes[c], cohort.n)
        key = cohort.treatment * (cohort.n + 1) + stratum
        require_positivity(np.bincount(key, minlength=2 * cohort.n + 2).reshape(2, -1), levels)
    return levels


def to_daily_trials(cohort: CohortDataset, covariates) -> DailyTrials:
    """Break the study into daily trials, counted per (arm, stratum, day, event).

    One bincount over the cell key, built from the cohort's day codes,
    fills the table.  Past n strata none is built: the first empty cell
    is refused by :func:`require_strata_at_most`.
    """
    covs = tuple(sorted(covariates))
    levels = require_strata_at_most(cohort, covs, cohort.n)
    stratum = np.zeros(cohort.n, dtype=np.int64)
    for c, ls in zip(covs, levels):
        stratum = stratum * len(ls) + cohort.codes[c]
    strata = math.prod(len(ls) for ls in levels)
    shape = (2, strata, len(cohort.days), 2)
    key = ((cohort.treatment * strata + stratum) * len(cohort.days) + cohort.day) * 2 + cohort.event
    counts = np.bincount(key, minlength=math.prod(shape)).reshape(shape)
    return DailyTrials(covs, levels, cohort.days, counts)


def _exact_deaths(trials, arm, day):
    """``arm``'s adjusted deaths by ``day``, exactly from the table's counts, rounded half-up.

    The deaths are A sum_z dead_z size_z / (size_{arm,z} N): A is the arm
    size, dead_z the arm's deaths in stratum z by that day, size_z the
    stratum size and N the cohort size.
    """
    from fractions import Fraction  # only counts within dust of a half need it

    sizes = trials.counts.sum(axis=(2, 3)).tolist()
    strata = [a + b for a, b in zip(*sizes)]
    through = np.searchsorted(trials.days, day, side="right")
    dead = trials.counts[arm, :, :through, 1].sum(axis=1).tolist()
    n = sum(strata)
    exact = sum(sizes[arm]) * sum(
        Fraction(k * strata[z], sizes[arm][z] * n) for z, k in enumerate(dead) if k
    )
    return math.floor(exact + Fraction(1, 2))


def from_adjusted_counts(adj) -> DailyTrials:
    """Rebuild the pseudo-cohort from an adjusted curve's per-day counts.

    The result is a one-stratum table on the curve's grid.  For each arm,
    a count drop of d at grid day i becomes d deaths at i,
    ``counts[arm, 0, i, 1]``; the count remaining at the horizon becomes
    that many subjects censored there, ``counts[arm, 0, -1, 0]``.  Per-arm
    totals equal the curve's arm sizes exactly.  Cumulative deaths are
    rounded half-up day by day (a tied .5 goes to the earlier day), so each
    count stays within 0.5 of the curve's and per-day deaths stay
    non-negative.  A death count within 1e-9 of a half, which
    floating-point dust could send either way, is recomputed exactly by
    :func:`_exact_deaths` when the curve names the ``trials`` it came
    from, so the table does not depend on how the curve was summed.
    """
    days = np.asarray(adj.grid, dtype=np.int64)
    table = np.zeros((2, 1, len(days), 2), dtype=np.int64)
    for arm in (0, 1):
        size = int(adj.arm_sizes[arm])
        counts = np.asarray(adj.counts[arm], dtype=np.float64)
        tol = 1e-9 * max(size, 1)
        if (counts[1:] - counts[:-1] > tol).any():
            raise NonMonotoneCounts(
                f"arm {arm}: adjusted counts increase along the day grid"
            )
        deaths = size - counts
        if (deaths < -tol).any():
            raise NonMonotoneCounts("adjusted count exceeds the arm size")
        deaths = np.maximum(deaths, 0.0)
        rounded = np.floor(deaths + 0.5).astype(np.int64)
        if adj.trials is not None:
            for g in (np.abs(deaths - rounded) >= 0.5 - tol).nonzero()[0].tolist():
                rounded[g] = _exact_deaths(adj.trials, arm, days[g])
        ints = size - rounded
        table[arm, 0, :, 1] = np.maximum(np.concatenate(([size], ints[:-1])) - ints, 0)
        table[arm, 0, -1, 0] = ints[-1]
    return DailyTrials((), (), days, table)
