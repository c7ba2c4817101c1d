"""Backdoor adjustment of the per-day survival probabilities.

Once a set Z satisfies the backdoor criterion, the interventional survival
at day i is the Z-weighted average of the stratum-specific survival
fractions:

    P(alive at day i | do(arm)) = sum_z P(alive at i | arm, z) * P(z)

with both factors estimated as empirical frequencies.  An empty Z makes
the adjusted curve the crude per-arm proportion.
"""

from dataclasses import dataclass

import numpy as np

from .cohort import CohortDataset
from .errors import InvalidAdjustmentSet
from .graph import AdjustmentSet
from .trials import DailyProportions, SurvivalMatrix, daily_survival_proportions

__all__ = ["AdjustedCurve", "adjust_curve", "unadjusted_curve"]


@dataclass(frozen=True)
class AdjustedCurve:
    """Adjusted survival probabilities and counts on the compressed day grid.

    Probabilities are step functions of the day; ``grid`` holds every day a
    value can change (always including 0 and t_max) and row ``arm`` of ``p``
    the values from that day on.  ``counts`` is p times the arm size.
    """

    grid: np.ndarray
    p: np.ndarray  # shape (2, len(grid))
    counts: np.ndarray
    arm_sizes: dict[int, int]
    adjustment_set: frozenset[str]
    t_max: int

    def p_at(self, arm: int, day) -> np.ndarray:
        day = np.asarray(day)
        idx = np.searchsorted(self.grid, day, side="right") - 1
        return self.p[arm, idx]


def _curve_from_proportions(table: DailyProportions, cohort, members) -> AdjustedCurve:
    n = cohort.n
    weights = np.array(
        [table.marginals[combo] for combo in table.strata], dtype=np.float64
    ) / n
    arm_sizes = cohort.arm_sizes()
    p = np.empty((2, len(table.grid)))
    for arm in (0, 1):
        # fixed evaluation order per day keeps the curve monotone in fp too
        p[arm] = table.values[arm].T @ weights
    np.clip(p, 0.0, 1.0, out=p)  # trim fp dust; the true values are in [0, 1]
    counts = p * np.array([[arm_sizes[0]], [arm_sizes[1]]], dtype=np.float64)
    return AdjustedCurve(
        table.grid, p, counts, arm_sizes, frozenset(members), table.t_max
    )


def adjust_curve(
    cohort: CohortDataset,
    matrix: SurvivalMatrix,
    z: AdjustmentSet,
    laplace: float = 0.0,
) -> AdjustedCurve:
    """Apply the backdoor adjustment day by day for both arms.

    Requires a valid adjustment set and positivity (every (arm, stratum)
    cell occupied).  The resulting per-arm curve is non-increasing because
    every stratum curve is and the weights do not depend on the day.
    ``laplace`` is passed through to the per-stratum estimator; the
    default 0 is the plain plug-in.
    """
    if not z.valid:
        raise InvalidAdjustmentSet(
            f"set {sorted(z.variables)!r} does not satisfy the backdoor criterion "
            f"for ({z.treatment!r}, {z.outcome!r})"
        )
    table = daily_survival_proportions(matrix, cohort, z.variables, laplace=laplace)
    return _curve_from_proportions(table, cohort, z.variables)


def unadjusted_curve(cohort: CohortDataset, matrix: SurvivalMatrix) -> AdjustedCurve:
    """Crude per-arm survival proportions on the same grid (no adjustment)."""
    table = daily_survival_proportions(matrix, cohort, ())
    return _curve_from_proportions(table, cohort, ())
