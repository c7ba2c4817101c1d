"""Backdoor adjustment of the per-day survival probabilities.

Once a set Z satisfies the backdoor criterion, the interventional survival
at day i is the Z-weighted average of the stratum-specific survival
fractions:

    P(alive at day i | do(arm)) = sum_z P(alive at i | arm, z) * P(z)

with both factors estimated as empirical frequencies from the daily
trials' count table, :class:`~causalsurv.trials.DailyTrials`: a cell's
size is its sum over days and events, the number alive at day i is that
size less its deaths up to i, and a stratum is only an index into it.
The unadjusted curve is the same computation on the pooled table, whose
one stratum makes it the crude per-arm proportion.
"""

from typing import NamedTuple

import numpy as np

from .cohort import CohortDataset
from .errors import InvalidAdjustmentSet
from .graph import AdjustmentSet
from .trials import DailyTrials, require_positivity

__all__ = ["AdjustedCurve", "adjust_curve", "unadjusted_curve"]


class AdjustedCurve(NamedTuple):
    """Adjusted survival probabilities and counts on the compressed day grid.

    Probabilities are step functions of the day; ``grid`` holds every day a
    value can change (always including 0 and t_max) and row ``arm`` of ``p``
    the values from that day on.  ``counts`` is p times the arm size.
    ``trials`` is the count table the curve was computed from, if it was.
    """

    grid: np.ndarray
    p: np.ndarray  # shape (2, len(grid))
    counts: np.ndarray
    arm_sizes: dict[int, int]
    trials: DailyTrials | None = None

    def p_at(self, arm: int, day) -> np.ndarray:
        """Row ``arm`` of ``p`` on ``day``; 1.0 before the first grid day."""
        idx = np.searchsorted(self.grid, day, side="right") - 1
        out = np.where(idx >= 0, self.p[arm, np.maximum(idx, 0)], 1.0)
        return out if out.shape else out[()]


def _curve(trials: DailyTrials) -> AdjustedCurve:
    """The adjusted curve of a daily-trials table, weighted over its strata.

    Raises :class:`PositivityViolation` at the first empty (arm, stratum)
    cell; the plug-in adjustment needs every cell occupied.
    """
    table, days = trials.counts, trials.days
    sizes = table.sum(axis=(2, 3))
    require_positivity(sizes, trials.levels)
    deaths = table[..., 1]
    grid = np.union1d(days[deaths.any(axis=(0, 1))], [0, days[-1]])
    # deaths on or before each grid day, then alive = size - deaths so far
    dead = np.zeros(deaths.shape[:2] + (len(days) + 1,), dtype=np.int64)
    np.cumsum(deaths, axis=2, out=dead[..., 1:])
    alive = sizes[..., None] - dead[..., np.searchsorted(days, grid, side="right")]
    values = alive / sizes[..., None]
    weights = sizes.sum(axis=0) / int(sizes.sum())
    p = np.empty((2, len(grid)))
    for arm in (0, 1):
        # fixed evaluation order per day keeps the curve monotone in fp too
        p[arm] = values[arm].T @ weights
    np.clip(p, 0.0, 1.0, out=p)  # trim fp dust; the true values are in [0, 1]
    arm_sizes = sizes.sum(axis=1)
    counts = p * arm_sizes[:, None]
    return AdjustedCurve(grid, p, counts, dict(enumerate(arm_sizes.tolist())), trials)


def adjust_curve(cohort: CohortDataset, trials: DailyTrials, z: AdjustmentSet) -> AdjustedCurve:
    """Apply the backdoor adjustment day by day for both arms.

    ``trials`` are the daily trials of ``cohort`` stratified by the
    members of ``z``; every quantity is read from their count table.
    Requires a valid adjustment set and positivity (every (arm, stratum)
    cell occupied).  The resulting per-arm curve is non-increasing because
    every stratum curve is and the weights do not depend on the day.
    """
    if not z.valid:
        raise InvalidAdjustmentSet(
            f"set {sorted(z.variables)!r} does not satisfy the backdoor criterion "
            f"for ({z.treatment!r}, {z.outcome!r})"
        )
    if trials.covariates != tuple(sorted(z.variables)):
        raise ValueError(f"trials are stratified by {trials.covariates!r}, not by the set")
    return _curve(trials)


def unadjusted_curve(trials: DailyTrials) -> AdjustedCurve:
    """Crude per-arm survival proportions (no adjustment): the curve of ``trials.pooled()``."""
    return _curve(trials.pooled())
