"""Transformation between a survival study and per-day binary-outcome trials.

Forward: a cohort with survival times becomes a family of daily trials, one
per day i in 0..t_max, with outcome "alive at day i".  A subject is dead at
day i exactly when their event occurred at or before i; censored subjects
count as alive on every day (their event was never observed).  That is the
contract, and it overstates survival when censoring is heavy; the strict
mode in :mod:`causalsurv.cohort` is the opt-in alternative.

Backward: per-arm per-day adjusted survival counts are turned back into a
pseudo-cohort, held as count rows, whose deaths fall on the first day each
count drops and whose survivors are censored at the horizon.

Every per-day quantity here is a step function that can only change on a
day somebody dies, so values are stored on the compressed grid of those
days; cost scales with the number of distinct death days, not with t_max.
Dense per-day arrays are available on demand for horizons that fit in
memory.
"""

from dataclasses import dataclass

import numpy as np

from .cohort import CohortDataset, stratum_counts
from .errors import NonMonotoneCounts, PositivityViolation

__all__ = [
    "SurvivalMatrix",
    "DailyProportions",
    "AdjustedCohort",
    "to_daily_trials",
    "daily_survival_proportions",
    "from_adjusted_counts",
]

_DENSE_CELL_CAP = 200_000_000


@dataclass(frozen=True)
class SurvivalMatrix:
    """Per-subject daily survival indicators, stored as each death day.

    ``death_day[j]`` is the first day subject j counts as dead, or -1 if
    the subject stays alive through the whole window (censored subjects
    always do).  The dense matrix y[day, subject] is materialized on
    demand.
    """

    death_day: np.ndarray
    t_max: int
    n: int

    def dense(self) -> np.ndarray:
        cells = (self.t_max + 1) * self.n
        if cells > _DENSE_CELL_CAP:
            raise MemoryError(
                f"dense matrix would hold {cells} cells; use the compressed accessors"
            )
        days = np.arange(self.t_max + 1)[:, None]
        dd = self.death_day[None, :]
        return ((dd < 0) | (days < dd)).view(np.uint8)

    def event_grid(self) -> np.ndarray:
        """Days where any survival value can change, plus both endpoints."""
        days = self.death_day[self.death_day >= 0]
        return np.unique(np.concatenate((days, [0, self.t_max]))).astype(np.int64)


def to_daily_trials(cohort: CohortDataset) -> SurvivalMatrix:
    """Break the study into daily trials: dead at day i iff event and time <= i."""
    death_day = np.where(cohort.event == 1, cohort.time, -1).astype(np.int64)
    return SurvivalMatrix(death_day, cohort.t_max, cohort.n)


@dataclass(frozen=True)
class DailyProportions:
    """Empirical P(alive at day | arm, stratum) on the compressed day grid."""

    strata: tuple[tuple[str, ...], ...]
    grid: np.ndarray
    values: np.ndarray  # shape (2, n_strata, len(grid))
    marginals: dict[tuple[str, ...], int]
    t_max: int

    def at(self, arm: int, stratum_index: int, day) -> np.ndarray:
        day = np.asarray(day)
        idx = np.searchsorted(self.grid, day, side="right") - 1
        return self.values[arm, stratum_index, idx]


def daily_survival_proportions(
    matrix: SurvivalMatrix, cohort: CohortDataset, stratify_by, laplace: float = 0.0
) -> DailyProportions:
    """Fraction alive per day within each (arm, stratum) cell.

    Raises :class:`PositivityViolation` naming the first empty cell; the
    plug-in adjustment downstream needs every cell occupied.  ``laplace``
    adds a pseudocount to each cell's alive/dead tallies, (alive + a) /
    (size + 2a), steadying near-empty strata; 0 is the plain plug-in and
    0.5 is the conventional smoothing value.
    """
    index = stratum_counts(cohort, stratify_by)
    empty = [cell for cell, count in index.counts.items() if count == 0]
    if empty:
        raise PositivityViolation(*empty[0])
    grid = matrix.event_grid()
    # deaths per (arm, stratum, grid day) cell, then alive = size - deaths so far
    n_strata = len(index.strata)
    dead = matrix.death_day >= 0
    cell = (cohort.treatment * n_strata + index.assign)[dead] * len(grid)
    cell += np.searchsorted(grid, matrix.death_day[dead])
    deaths = np.bincount(cell, minlength=2 * n_strata * len(grid))
    sizes = np.reshape(list(index.counts.values()), (n_strata, 2)).T[:, :, None]
    alive = sizes - np.cumsum(deaths.reshape(2, n_strata, len(grid)), axis=2)
    values = (alive + laplace) / (sizes + 2.0 * laplace)
    return DailyProportions(index.strata, grid, values, index.marginals, matrix.t_max)


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
