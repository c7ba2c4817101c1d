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
distinct days, not with t_max or the number of subjects.  Every stage
after identification reads it: the adjusted curve, Kaplan-Meier and the
crude and traditional Cox fits.

Backward: per-arm per-day adjusted survival counts are turned back into a
pseudo-cohort, held as count rows, whose deaths fall on the first day each
count drops and whose survivors are censored at the horizon.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cohort import CohortDataset, stratum_assignments
from .errors import NonMonotoneCounts

__all__ = ["DailyTrials", "AdjustedCohort", "to_daily_trials", "from_adjusted_counts"]


@dataclass(frozen=True, eq=False)
class DailyTrials:
    """The daily trials as subjects per (arm, stratum, day, event) cell.

    ``counts[arm, s, g, e]`` is the number of subjects in arm ``arm`` and
    stratum ``strata[s]`` whose follow-up ends on day ``days[g]`` with
    event flag ``e``.  Strata are the level combinations of ``covariates``
    (sorted names), ``shape`` levels each, in the order of
    :func:`~causalsurv.cohort.stratum_assignments`; ``days`` are the
    distinct follow-up days, ascending, so the last is t_max.
    """

    covariates: tuple[str, ...]
    strata: tuple[tuple[str, ...], ...]
    shape: tuple[int, ...]
    days: np.ndarray
    counts: np.ndarray  # int64, shape (2, len(strata), len(days), 2)

    def cells(self, by_stratum: bool = True):
        """Occupied cells as count rows: arm, stratum, day, event and count arrays.

        ``by_stratum=False`` sums over the strata first, and every stratum
        index is then 0.
        """
        table = self.counts if by_stratum else self.counts.sum(axis=1, keepdims=True)
        arm, stratum, g, event = np.nonzero(table)
        return arm, stratum, self.days[g], event, table[arm, stratum, g, event]

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


@dataclass(frozen=True)
class AdjustedCohort:
    """Pseudo-cohort as count rows: ``count`` subjects share (arm, day, event).

    See :func:`from_adjusted_counts` for the rows; none has a count of zero.
    """

    arm: np.ndarray
    day: np.ndarray
    event: np.ndarray
    count: np.ndarray

    @property
    def n(self) -> int:
        return int(self.count.sum())


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


def from_adjusted_counts(adj, arm_sizes) -> AdjustedCohort:
    """Rebuild the pseudo-cohort's count rows from adjusted per-day counts.

    For each arm, a count drop of d at day i becomes a row of d events at
    day i; the count remaining at the horizon becomes a row of that many
    subjects censored there.  Rows of count zero are left out.  Per-arm
    totals equal ``arm_sizes`` exactly.
    """
    days = np.asarray(adj.grid, dtype=np.int64)
    row_days = np.append(days, days[-1])  # survivors row last
    row_events = np.append(np.ones(len(days), dtype=np.int64), 0)
    columns = []
    for arm in (0, 1):
        size = int(arm_sizes[arm])
        counts = np.asarray(adj.counts[arm], dtype=np.float64)
        if np.any(np.diff(counts) > 1e-9 * max(size, 1)):
            raise NonMonotoneCounts(
                f"arm {arm}: adjusted counts increase along the day grid"
            )
        ints = _integerize_counts(counts, size)
        drops = np.maximum(-np.diff(ints, prepend=size), 0)
        count = np.append(drops, ints[-1])
        keep = count > 0
        columns.append((np.full(keep.sum(), arm), row_days[keep], row_events[keep], count[keep]))
    return AdjustedCohort(*(np.concatenate(col) for col in zip(*columns)))
