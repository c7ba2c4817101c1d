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
distinct days, not with t_max or the number of subjects.

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

from .cohort import CohortDataset, stratum_assignments
from .errors import NonMonotoneCounts

__all__ = ["DailyTrials", "to_daily_trials", "from_adjusted_counts"]


@dataclass(frozen=True, eq=False)
class DailyTrials:
    """The daily trials as subjects per (arm, stratum, day, event) cell.

    ``counts[arm, s, g, e]`` is the number of subjects in arm ``arm`` and
    stratum ``strata[s]`` whose follow-up ends on day ``days[g]`` with
    event flag ``e``.  Strata are the level combinations of ``covariates``
    (sorted names), ``shape`` levels each, in the order of
    :func:`~causalsurv.cohort.stratum_assignments`; ``days`` ascend, and
    the last is t_max.
    """

    covariates: tuple[str, ...]
    strata: tuple[tuple[str, ...], ...]
    shape: tuple[int, ...]
    days: np.ndarray
    counts: np.ndarray  # int64, shape (2, len(strata), len(days), 2)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def pooled(self) -> "DailyTrials":
        """The same subjects as one stratum, with no covariates."""
        return DailyTrials((), ((),), (), self.days, self.counts.sum(axis=1, keepdims=True))

    def cells(self):
        """Occupied cells as count rows: arm, stratum, day, event and count arrays."""
        arm, stratum, g, event = np.nonzero(self.counts)
        return arm, stratum, self.days[g], event, self.counts[arm, stratum, g, event]

    def dummies(self, stratum) -> list[np.ndarray]:
        """0/1 column blocks of each covariate's levels but the first, per stratum index."""
        if not self.shape:
            return []
        codes = np.unravel_index(stratum, self.shape)
        return [c[:, None] == np.arange(1, k) for c, k in zip(codes, self.shape)]


def to_daily_trials(cohort: CohortDataset, covariates) -> DailyTrials:
    """Break the study into daily trials, counted per (arm, stratum, day, event).

    Strata are the level combinations of ``covariates``; one bincount
    over the cell key fills the table.
    """
    covs, strata, assign = stratum_assignments(cohort, covariates)
    days, g = np.unique(cohort.time, return_inverse=True)
    shape = (2, len(strata), len(days), 2)
    key = ((cohort.treatment * len(strata) + assign) * len(days) + g) * 2 + cohort.event
    counts = np.bincount(key, minlength=math.prod(shape)).reshape(shape)
    levels = tuple(len(cohort.covariate_levels[c]) for c in covs)
    return DailyTrials(covs, strata, levels, days, counts)


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
    return DailyTrials((), ((),), (), days, table)
