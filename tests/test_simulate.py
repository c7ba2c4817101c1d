import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from causalsurv import errors
from causalsurv.cli import main
from causalsurv.cohort import save_cohort
from causalsurv.simulate import SimConfig, generate_cohort

from oracles import subjects


def test_first_group_member_survives_a_days():
    # zero noise isolates the ladder: the first member of every cell gets a=5
    cohort = generate_cohort(SimConfig(n=20, noise=(0.0, 0.0), seed=3))
    firsts = {}
    for s in subjects(cohort):
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
    people = subjects(cohort)
    eleventh = people[10]
    assert (eleventh.treatment, eleventh.covariates["z"]) == (1, "1")
    assert eleventh.survival_time == 12
    assert people[0].survival_time == 5


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
        {"a": 1e19, "b": -1.0},  # a falling ladder whose first day is past int64
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


# sha256 of ``causalsurv simulate --n N --seed SEED`` stdout; (3740, 196) is
# a cohort whose rounded times move if the ladder uses np.exp for math.exp
SIMULATE_SHA256 = {
    (200, 1): "7e185ca62cfaaaa35c3fa6c423c051b599ae402f51b02beddb8264350f77ef7b",
    (200, 7): "54cdbc636772e901b8e28cf9bb6e1ed4d9ef2cbbb88da01677c47be1b8f2366f",
    (200, 42): "eacba950624b4bb5a62324416120ae2a6c5085be918a2e0c2a1739d34bc0ca27",
    (3740, 196): "c299fc2521d6c03a3942e3e94e64e49c4ed0711041729b237a41d7fac30a3fcf",
}


def _simulate_csv(n, seed, bias=0.75):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
        argv = ["simulate", "--n", str(n), "--seed", str(seed), "--bias", str(bias)]
        assert main(argv) == 0
    return printed.getvalue()


def test_simulate_bytes_are_pinned():
    for (n, seed), digest in SIMULATE_SHA256.items():
        assert hashlib.sha256(_simulate_csv(n, seed).encode()).hexdigest() == digest
    # the benchmark writes its paper_small cohorts without importing the package
    path = Path(__file__).parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for seed in (1, 2):
        assert inputs.paper_cohort_csv(seed) == _simulate_csv(200, seed)
