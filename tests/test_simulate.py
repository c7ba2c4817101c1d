import io

import numpy as np
import pytest

from causalsurv import errors
from causalsurv.cohort import save_cohort
from causalsurv.simulate import SimConfig, generate_cohort


def test_first_group_member_survives_a_days():
    # zero noise isolates the ladder: the first member of every cell gets a=5
    cohort = generate_cohort(SimConfig(n=20, noise=(0.0, 0.0), seed=3))
    firsts = {}
    for s in cohort.subjects:
        key = (s.covariates["z"], s.treatment)
        firsts.setdefault(key, s.survival_time)
    assert set(firsts.values()) == {5}


def test_group_index_ten_formula_value():
    # subjects 0..10 all land in cell (z=1, x=1), so the 11th follows the
    # ladder at k=10: 5 * exp(0.09 * 10) = 12.29... -> 12 days
    cohort = generate_cohort(
        SimConfig(
            n=12,
            noise=(0.0, 0.0),
            p_z1=1.0,
            p_treat_given_z={0: 1.0, 1: 11 / 12},
            seed=0,
        )
    )
    eleventh = cohort.subjects[10]
    assert (eleventh.treatment, eleventh.covariates["z"]) == (1, "1")
    assert eleventh.survival_time == 12
    assert cohort.subjects[0].survival_time == 5


def test_reproducible_byte_for_byte():
    a, b = io.StringIO(), io.StringIO()
    save_cohort(generate_cohort(SimConfig(seed=42)), a)
    save_cohort(generate_cohort(SimConfig(seed=42)), b)
    assert a.getvalue() == b.getvalue()
    c = io.StringIO()
    save_cohort(generate_cohort(SimConfig(seed=43)), c)
    assert a.getvalue() != c.getvalue()


def _treated_share(cohort):
    """P(x=1 | z) per z level, from one bincount over (z, arm)."""
    levels = cohort.covariate_levels["z"]
    table = np.bincount(cohort.codes["z"] * 2 + cohort.treatment, minlength=2 * len(levels))
    return {level: t / (c + t) for level, (c, t) in zip(levels, table.reshape(-1, 2).tolist())}


def test_default_bias_is_exact():
    cohort = generate_cohort(SimConfig(seed=11))
    share = _treated_share(cohort)
    assert abs(share["0"] - 0.75) <= 0.10
    assert abs(share["1"] - 0.25) <= 0.10


def test_balanced_bias_is_balanced():
    cohort = generate_cohort(SimConfig(seed=11, p_treat_given_z={0: 0.5, 1: 0.5}))
    share = _treated_share(cohort)
    for level in ("0", "1"):
        assert share[level] == pytest.approx(0.5, abs=0.01)


def test_times_are_nonnegative_integers():
    cohort = generate_cohort(SimConfig(seed=5, noise=(-6.0, -4.0)))
    assert np.all(cohort.time >= 0)
    assert np.all(cohort.event == 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"n": 1},
        {"p_z1": 1.5},
        {"p_treat_given_z": {0: 0.5}},
        {"p_treat_given_z": {0: -0.1, 1: 0.5}},
        {"noise": (0.5, -0.5)},
        {"seed": -1},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(errors.InvalidConfig):
        generate_cohort(SimConfig(**kwargs))


@pytest.mark.parametrize("n", [3741, 4000, 100_000, 10**13])
def test_n_whose_ladder_leaves_the_day_range_rejected(n):
    # at the default cells the last member's time first passes 2**63 at n = 3741
    with pytest.raises(errors.InvalidConfig, match=f"^n={n} is too large"):
        SimConfig(n=n).validate()


def test_largest_n_within_the_day_range_is_simulated():
    cohort = generate_cohort(SimConfig(n=3740, seed=1))
    assert cohort.n == 3740
