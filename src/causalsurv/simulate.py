"""Synthetic observational cohort with a controllable confounding bias.

One binary confounder ``z`` drives both treatment assignment and survival.
Assignment counts are exact rather than sampled: ``round_half_up(n * p_z1)``
subjects carry z=1, and within each z stratum ``round_half_up(n_z * p)``
subjects are treated, where p is ``p_treat_given_z[z]``.  Holding the
realized assignment table fixed keeps the injected confounding bias itself
constant across replications, so seeds vary only the noise stream; in
particular ``p_treat_given_z`` of 0.5/0.5 yields exact empirical balance
and the backdoor adjustment becomes a provable no-op.

Survival times follow an exponential ladder within each (z, x) cell: the
k-th member of a cell (k = 0, 1, ...) dies at

    time = a * exp((b + c*z + d*x + e*z*x) * k) + noise

rounded half-up to whole days and clamped at zero, with event = 1 for
everyone (no censoring).  Sorted within a cell, the death times sweep out
an exponential survival profile whose rate is the cell's exponent.

Subjects are laid out in index order as the z=0 block then the z=1 block,
treated before controls within each block.

The cohort is built as columns (treatment, day codes into the sorted
distinct times, event and the codes of ``z`` over its levels in use),
with no per-subject record, no id and no round trip through text
(``save_cohort`` writes the row labels ``p0``, ``p1``, ... as ids).  The
ladder uses ``math.exp`` per subject: ``np.exp`` differs from it in the
last bit for some arguments, which moves rounded times.

Randomness contract: a single ``numpy.random.Generator`` seeded with
``seed`` (PCG64, numpy's default bit generator), consumed as one uniform
noise draw per subject in index order (drawn as one vector of n, the same
stream as n scalar draws).  Changing the generator, the draw order, or
the assignment layout is a breaking change; golden tests depend on all
three.
"""

import math
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .cohort import CohortDataset, _dataset
from .errors import InvalidConfig

__all__ = ["SimConfig", "generate_cohort"]


def _half_up(value: float) -> int:
    return math.floor(value + 0.5)


class SimConfig(NamedTuple):
    n: int = 200
    a: float = 5.0
    b: float = 0.025
    c: float = 0.005
    d: float = -0.015
    e: float = 0.075
    noise: tuple[float, float] = (-0.5, 0.5)
    p_treat_given_z: Mapping[int, float] = MappingProxyType({0: 0.75, 1: 0.25})
    p_z1: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.n < 2:
            raise InvalidConfig(f"n must be at least 2, got {self.n}")
        if not 0.0 <= self.p_z1 <= 1.0:
            raise InvalidConfig(f"p_z1 must lie in [0, 1], got {self.p_z1}")
        for level in (0, 1):
            if level not in self.p_treat_given_z:
                raise InvalidConfig(f"p_treat_given_z is missing level {level}")
            p = self.p_treat_given_z[level]
            if not 0.0 <= p <= 1.0:
                raise InvalidConfig(f"p_treat_given_z[{level}]={p} outside [0, 1]")
        lo, hi = self.noise
        if not lo <= hi:
            raise InvalidConfig(f"noise bounds {self.noise} are not ordered")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {self.seed}")
        # the ladder is monotone in k: its largest time is a (k = 0) or the
        # cell's last member's
        if self.a + hi >= 2.0**63:
            raise InvalidConfig(f"a={self.a} leaves the 64-bit range of day counts")
        for z, x, size in self._cells():
            try:
                top = self._ladder(z, x, size - 1) + hi
            except OverflowError:
                top = math.inf
            if size and top >= 2.0**63:
                raise InvalidConfig(
                    f"n={self.n} is too large: the survival-time ladder of cell "
                    f"z={z}, x={x} leaves the 64-bit range of day counts"
                )

    def _cells(self) -> list[tuple[int, int, int]]:
        """(z, x, size) per cell in index order; sizes are exact."""
        n_z1 = _half_up(self.n * self.p_z1)
        cells = []
        for z, n_z in ((0, self.n - n_z1), (1, n_z1)):
            treated = _half_up(n_z * self.p_treat_given_z[z])
            cells += [(z, 1, treated), (z, 0, n_z - treated)]
        return cells

    def _ladder(self, z: int, x: int, k: int) -> float:
        """Noise-free survival time of the k-th member of cell (z, x)."""
        return self.a * math.exp((self.b + self.c * z + self.d * x + self.e * z * x) * k)


def generate_cohort(config: SimConfig) -> CohortDataset:
    """Draw a cohort; identical config and seed give identical output."""
    config.validate()
    cells = config._cells()
    noise = np.random.default_rng(config.seed).uniform(*config.noise, size=config.n).tolist()
    ladder = [config._ladder(z, x, k) for z, x, size in cells for k in range(size)]
    time = [max(0, _half_up(raw + e)) for raw, e in zip(ladder, noise)]
    sizes = [size for _, _, size in cells]
    z = np.repeat([z for z, _, _ in cells], sizes)
    levels, codes = np.unique(z, return_inverse=True)
    days, day = np.unique(np.array(time, dtype=np.int64), return_inverse=True)
    return _dataset(
        np.repeat(np.array([x for _, x, _ in cells], dtype=np.int64), sizes),
        days,
        day.astype(np.int64),
        np.ones(config.n, dtype=np.int64),
        {"z": (tuple(map(str, levels.tolist())), codes.astype(np.int64))},
    )
