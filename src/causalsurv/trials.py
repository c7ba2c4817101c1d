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
column per distinct follow-up day, so its size scales with the number of
distinct days, not with t_max or the number of subjects.  A stratum is an
index into the covariates' level product, last covariate fastest, that
only this module decodes; past n strata no table is built.

Backward: per-arm per-day adjusted survival counts are turned back into a
pseudo-cohort, the same kind of table with one stratum on the curve's day
grid: its deaths fall on the first day each count drops and its survivors
are censored at the horizon.  Every stage after identification reads one
of these tables: the adjusted curve, both Kaplan-Meier curves and all
three Cox fits.
"""

import math
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class DailyTrials:
    """The daily trials as subjects per (arm, stratum, day, event) cell.

    ``counts[arm, s, g, e]`` is the number of subjects in arm ``arm`` and
    stratum ``s`` whose follow-up ends on day ``days[g]`` with event flag
    ``e``.  ``levels`` holds the sorted level tuple of each of the sorted
    ``covariates``, and stratum ``s`` is the ``s``-th combination of their
    product.  ``days`` ascend, and the last is t_max.
    """

    covariates: tuple[str, ...]
    levels: tuple[tuple[str, ...], ...]
    days: np.ndarray
    counts: np.ndarray  # int64, shape (2, strata, len(days), 2)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def pooled(self) -> "DailyTrials":
        """The same subjects as one stratum, with no covariates."""
        return DailyTrials((), (), self.days, self.counts.sum(axis=1, keepdims=True))

    def cells(self):
        """Occupied cells as count rows: arm, stratum, day, event and count arrays."""
        arm, stratum, g, event = np.nonzero(self.counts)
        return arm, stratum, self.days[g], event, self.counts[arm, stratum, g, event]

    def dummies(self, stratum) -> list[np.ndarray]:
        """0/1 column blocks of each covariate's levels but the first, per stratum index."""
        codes = _level_codes(stratum, self.levels)
        return [c[:, None] == np.arange(1, len(ls)) for c, ls in zip(codes, self.levels)]


def to_daily_trials(cohort: CohortDataset, covariates) -> DailyTrials:
    """Break the study into daily trials, counted per (arm, stratum, day, event).

    One bincount over the cell key fills the table.  Past n strata, stratum
    indices capped at n (exact below it) find the empty cell and none is built.
    """
    covs = tuple(sorted(covariates))
    for c in covs:
        if c not in cohort.covariate_levels:
            raise UnknownCovariate(f"unknown covariate {c!r}")
    levels = tuple(cohort.covariate_levels[c] for c in covs)
    stratum = np.zeros(cohort.n, dtype=np.int64)
    for c, ls in zip(covs, levels):
        stratum = np.minimum(stratum * len(ls) + cohort.codes[c], cohort.n)
    strata = math.prod(len(ls) for ls in levels)
    if strata > cohort.n:
        # an arm holds fewer than n subjects, so a cell below n is empty: this raises
        key = cohort.treatment * (cohort.n + 1) + stratum
        require_positivity(np.bincount(key, minlength=2 * cohort.n + 2).reshape(2, -1), levels)
    days, g = np.unique(cohort.time, return_inverse=True)
    shape = (2, strata, len(days), 2)
    key = ((cohort.treatment * strata + stratum) * len(days) + g) * 2 + cohort.event
    counts = np.bincount(key, minlength=math.prod(shape)).reshape(shape)
    return DailyTrials(covs, levels, days, counts)


def _integerize_counts(counts, arm_size):
    """Round fractional alive-counts to integers, totals preserved exactly.

    The cumulative death count is rounded day by day (half-up, which hands
    a tied .5 to the earlier day), so each integerized count stays within
    0.5 of the real-valued one and per-day death increments stay
    non-negative.
    """
    deaths = arm_size - counts
    if np.any(deaths < -1e-9 * max(arm_size, 1)):
        raise NonMonotoneCounts("adjusted count exceeds the arm size")
    rounded = np.floor(np.maximum(deaths, 0.0) + 0.5).astype(np.int64)
    return arm_size - rounded


def from_adjusted_counts(adj) -> DailyTrials:
    """Rebuild the pseudo-cohort from an adjusted curve's per-day counts.

    The result is a one-stratum table on the curve's grid.  For each arm,
    a count drop of d at grid day i becomes d deaths at i,
    ``counts[arm, 0, i, 1]``; the count remaining at the horizon becomes
    that many subjects censored there, ``counts[arm, 0, -1, 0]``.  Per-arm
    totals equal the curve's arm sizes exactly.
    """
    days = np.asarray(adj.grid, dtype=np.int64)
    table = np.zeros((2, 1, len(days), 2), dtype=np.int64)
    for arm in (0, 1):
        size = int(adj.arm_sizes[arm])
        counts = np.asarray(adj.counts[arm], dtype=np.float64)
        if np.any(np.diff(counts) > 1e-9 * max(size, 1)):
            raise NonMonotoneCounts(
                f"arm {arm}: adjusted counts increase along the day grid"
            )
        ints = _integerize_counts(counts, size)
        table[arm, 0, :, 1] = np.maximum(-np.diff(ints, prepend=size), 0)
        table[arm, 0, -1, 0] = ints[-1]
    return DailyTrials((), (), days, table)
