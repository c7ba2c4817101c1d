import numpy as np
import pytest

from causalsurv import errors
from causalsurv.adjust import adjust_curve, unadjusted_curve
from causalsurv.graph import AdjustmentSet, satisfies_backdoor, validate_dag
from causalsurv.trials import to_daily_trials

from oracles import brute_force_do, cohort_from_rows

CONFOUNDED = validate_dag(["z", "x", "t"], [("z", "x"), ("z", "t"), ("x", "t")])
ZSET = satisfies_backdoor(CONFOUNDED, {"z"}, "x", "t")
EMPTY_SET = AdjustmentSet(frozenset(), True, "x", "t")


def test_weighted_sum_hand_example():
    # P(alive|x=1,z=0)=0.8, P(alive|x=1,z=1)=0.4, P(z)=0.5/0.5 -> 0.6
    rows = []
    rows += [(1, 9, 1, "0")] * 4 + [(1, 1, 1, "0")] * 1  # 4/5 alive at day 5
    rows += [(1, 9, 1, "1")] * 2 + [(1, 1, 1, "1")] * 3  # 2/5 alive at day 5
    rows += [(0, 9, 1, "0")] * 5 + [(0, 9, 1, "1")] * 5
    cohort = cohort_from_rows(rows)
    curve = adjust_curve(cohort, to_daily_trials(cohort, {"z"}), ZSET)
    assert curve.p_at(1, 5) == pytest.approx(0.8 * 0.5 + 0.4 * 0.5, abs=1e-15)
    # before day 0 everyone is alive, not the horizon's value (all dead here)
    assert curve.p_at(1, -1) == 1.0 and curve.p_at(1, 9) == 0.0
    assert curve.p_at(1, [-1, 0, 9]).tolist() == [1.0, 1.0, 0.0]


def test_exact_balance_matches_crude():
    # identical treated fraction in both strata: adjustment is a no-op
    rows = []
    for z in ("0", "1"):
        times = [3, 5, 8, 11] if z == "0" else [2, 7, 9, 13]
        for j, t in enumerate(times):
            rows.append((1 if j % 2 == 0 else 0, t, 1, z))
    cohort = cohort_from_rows(rows)
    trials = to_daily_trials(cohort, {"z"})
    adjusted = adjust_curve(cohort, trials, ZSET)
    crude = unadjusted_curve(trials)
    for arm in (0, 1):
        assert np.max(np.abs(adjusted.p[arm] - crude.p_at(arm, adjusted.grid))) <= 1e-12


def test_empty_set_equals_crude():
    rows = [(1, 3, 1, "0"), (1, 6, 1, "1"), (0, 4, 1, "0"), (0, 9, 1, "1")]
    cohort = cohort_from_rows(rows)
    trials = to_daily_trials(cohort, ())
    adjusted = adjust_curve(cohort, trials, EMPTY_SET)
    crude = unadjusted_curve(trials)
    assert np.array_equal(adjusted.p, crude.p)


def test_invalid_set_rejected():
    mediator = validate_dag(["x", "m", "y"], [("x", "m"), ("m", "y")])
    bad = satisfies_backdoor(mediator, {"m"}, "x", "y")
    rows = [(1, 3, 1, "0"), (0, 4, 1, "0")]
    cohort = cohort_from_rows(rows, ["m"])
    with pytest.raises(errors.InvalidAdjustmentSet):
        adjust_curve(cohort, to_daily_trials(cohort, bad.variables), bad)


def test_positivity_violation_names_stratum():
    rows = [(1, 3, 1, "0"), (0, 2, 1, "0"), (0, 4, 1, "1")]
    cohort = cohort_from_rows(rows)
    with pytest.raises(errors.PositivityViolation):
        adjust_curve(cohort, to_daily_trials(cohort, {"z"}), ZSET)


def test_curve_bounds_and_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(30):
        cohort = _random_cohort(rng)
        curve = adjust_curve(cohort, to_daily_trials(cohort, {"z"}), ZSET)
        assert np.all(curve.p >= 0.0)
        assert np.all(curve.p <= 1.0)
        assert np.all(np.diff(curve.p, axis=1) <= 0.0)
        assert np.allclose(
            curve.counts,
            curve.p * np.array([[cohort.arm_sizes()[0]], [cohort.arm_sizes()[1]]]),
        )


def _random_cohort(rng, max_n=30, max_day=10, n_cov=1):
    while True:
        n = int(rng.integers(8, max_n + 1))
        rows = []
        for _ in range(n):
            rows.append(
                (
                    int(rng.integers(0, 2)),
                    int(rng.integers(0, max_day + 1)),
                    int(rng.integers(0, 2)),
                    str(rng.integers(0, 2)),
                )
            )
        try:
            cohort = cohort_from_rows(rows)
            adjust_curve(cohort, to_daily_trials(cohort, {"z"}), ZSET)  # positivity probe
            return cohort
        except (errors.EmptyArm, errors.PositivityViolation):
            continue


def test_plug_in_with_singleton_strata():
    rows = [(1, 9, 1, "0"), (1, 1, 1, "0"), (0, 9, 1, "0")]
    rows += [(1, 9, 1, "1"), (0, 9, 1, "1")]
    cohort = cohort_from_rows(rows)
    plain = adjust_curve(cohort, to_daily_trials(cohort, {"z"}), ZSET)
    # stratum (x=1, z=0) has one of two dead by day 5, the singleton
    # stratum (x=1, z=1) none; stratum weights are 3/5 and 2/5
    assert plain.p_at(1, 5) == pytest.approx(0.5 * 0.6 + 1.0 * 0.4, abs=1e-15)
    assert np.all(plain.p >= 0.0) and np.all(plain.p <= 1.0)
    assert np.all(np.diff(plain.p, axis=1) <= 0.0)


def test_brute_force_day_zero_all_alive():
    rows = [(1, 3, 1, "0"), (0, 2, 1, "0"), (1, 4, 1, "1"), (0, 4, 1, "1")]
    cohort = cohort_from_rows(rows)
    assert brute_force_do(cohort, ZSET, 0, 1) == pytest.approx(1.0, abs=1e-12)


def test_brute_force_single_stratum_equals_crude():
    rows = [(1, 3, 1, "0"), (0, 2, 1, "0"), (1, 5, 1, "0"), (0, 6, 1, "0")]
    cohort = cohort_from_rows(rows)
    crude = unadjusted_curve(to_daily_trials(cohort, ()))
    for day in range(cohort.t_max + 1):
        got = brute_force_do(cohort, EMPTY_SET, day, 1)
        assert got == pytest.approx(float(crude.p_at(1, day)), abs=1e-12)


def test_adjustment_routes_agree():
    # the weighted one-day sum and the full joint-history sum are the same
    # estimand computed two ways; they must agree to near machine precision
    rng = np.random.default_rng(99)
    for _ in range(40):
        cohort = _random_cohort(rng)
        curve = adjust_curve(cohort, to_daily_trials(cohort, {"z"}), ZSET)
        for arm in (0, 1):
            for day in range(0, cohort.t_max + 1, 3):
                direct = float(curve.p_at(arm, day))
                long_form = brute_force_do(cohort, ZSET, day, arm)
                assert abs(direct - long_form) <= 1e-12
