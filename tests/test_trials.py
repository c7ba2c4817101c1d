import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsurv import errors
from causalsurv.adjust import AdjustedCurve, adjust_curve, unadjusted_curve
from causalsurv.estimators import cox_fit, km_fit
from causalsurv.graph import satisfies_backdoor, validate_dag
from causalsurv.trials import from_adjusted_counts, to_daily_trials

from oracles import cohort_from_rows, expand

CONFOUNDED = validate_dag(["z", "x", "t"], [("z", "x"), ("z", "t"), ("x", "t")])
ZSET = satisfies_backdoor(CONFOUNDED, {"z"}, "x", "t")


def _alive_per_day(trials, arm):
    """Alive in ``arm`` on each day 0..t_max: its size less deaths at or before the day."""
    table = trials.counts[arm].sum(axis=0)  # (day, event)
    days = range(int(trials.days[-1]) + 1)
    return [int(table.sum() - table[trials.days <= d, 1].sum()) for d in days]


def test_event_subject_dies_at_its_day():
    cohort = cohort_from_rows([(1, 2, 1, "0"), (0, 3, 1, "0")])
    assert _alive_per_day(to_daily_trials(cohort, ()), 1) == [1, 1, 0, 0]


def test_censored_subject_stays_alive():
    cohort = cohort_from_rows([(1, 2, 0, "0"), (0, 3, 1, "0")])
    assert _alive_per_day(to_daily_trials(cohort, ()), 1) == [1, 1, 1, 1]


def test_day_zero_death():
    cohort = cohort_from_rows([(1, 0, 1, "0"), (0, 3, 1, "0")])
    assert _alive_per_day(to_daily_trials(cohort, ()), 1) == [0, 0, 0, 0]


def test_matrix_is_monotone_and_column_sums_match():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        rows = [
            (
                int(rng.integers(0, 2)),
                int(rng.integers(0, 12)),
                int(rng.integers(0, 2)),
                "0",
            )
            for _ in range(n)
        ]
        rows[0] = (1, rows[0][1], rows[0][2], "0")
        rows[-1] = (0, rows[-1][1], rows[-1][2], "0")
        cohort = cohort_from_rows(rows)
        trials = to_daily_trials(cohort, ())
        assert trials.counts.sum() == cohort.n
        alive = np.array([_alive_per_day(trials, arm) for arm in (0, 1)])
        assert np.all(np.diff(alive, axis=1) <= 0)
        for i in range(cohort.t_max + 1):
            dead = sum(1 for (_, t, s, _) in rows if s == 1 and t <= i)
            assert alive[:, i].sum() == cohort.n - dead


def test_proportions_all_alive():
    cohort = cohort_from_rows([(1, 5, 0, "0"), (0, 5, 0, "0"), (1, 5, 0, "1"), (0, 5, 0, "1")])
    trials = to_daily_trials(cohort, {"z"})
    assert trials.counts[..., 1].sum() == 0
    assert np.all(adjust_curve(cohort, trials, ZSET).p == 1.0)


def test_proportions_direct_count():
    # stratum (x=1, z=0) of size 4 with one death by day 3
    rows = [(1, 3, 1, "0"), (1, 9, 1, "0"), (1, 9, 1, "0"), (1, 9, 1, "0")]
    rows += [(0, 9, 1, "0"), (1, 9, 1, "1"), (0, 9, 1, "1")]
    cohort = cohort_from_rows(rows)
    trials = to_daily_trials(cohort, {"z"})
    cell = trials.counts[1, trials.strata.index(("0",))]
    size = cell.sum()
    assert (size - cell[trials.days <= 3, 1].sum()) / size == 0.75
    assert (size - cell[trials.days <= 2, 1].sum()) / size == 1.0


def test_proportions_positivity_violation():
    cohort = cohort_from_rows([(1, 3, 1, "0"), (0, 2, 1, "0"), (0, 4, 1, "1")])
    with pytest.raises(errors.PositivityViolation) as exc:
        adjust_curve(cohort, to_daily_trials(cohort, {"z"}), ZSET)
    assert "arm=1" in str(exc.value)


@st.composite
def small_cohorts(draw):
    """A cohort of 2-25 subjects over days 0-8 with 0-2 covariates of 1-3 levels."""
    n = draw(st.integers(2, 25))
    levels = draw(st.lists(st.integers(1, 3), max_size=2))
    rows = [
        (
            draw(st.integers(0, 1)),
            draw(st.integers(0, 8)),
            draw(st.integers(0, 1)),
            *(draw(st.integers(0, m - 1)) for m in levels),
        )
        for _ in range(n)
    ]
    try:
        return cohort_from_rows(rows, [f"c{k}" for k in range(len(levels))])
    except errors.EmptyArm:
        return draw(st.nothing())


def _fit_outcome(fit, *args, **kwargs):
    """A fit's bits (beta, se, loglik, iterations, converged), or its error."""
    try:
        f = fit(*args, **kwargs)
    except errors.EstimationError as exc:
        return type(exc).__name__, str(exc)
    return f.beta.tobytes(), f.se.tobytes(), f.loglik, f.iterations, f.converged


@settings(max_examples=150)
@given(small_cohorts())
def test_count_rows_fit_exactly_as_subjects(cohort):
    covariates = cohort.covariate_names()
    trials = to_daily_trials(cohort, covariates)
    treatment = cohort.treatment.astype(np.float64)
    dummies = [
        cohort.codes[c][:, None] == np.arange(1, len(cohort.covariate_levels[c]))
        for c in covariates
    ]
    x_subjects = np.column_stack([treatment, *dummies]).astype(np.float64)
    pooled = trials.pooled()
    # the same subjects, days and per-(arm, day, event) sums in one stratum
    assert pooled.n == trials.n == cohort.n
    assert pooled.days.tolist() == trials.days.tolist()
    assert (pooled.covariates, pooled.strata, pooled.shape) == ((), ((),), ())
    by_hand = np.zeros((2, len(trials.days), 2), dtype=np.int64)
    day_of = np.searchsorted(trials.days, cohort.time)
    np.add.at(by_hand, (cohort.treatment, day_of, cohort.event), 1)
    assert pooled.counts.shape == (2, 1, len(trials.days), 2)
    assert pooled.counts[:, 0].tolist() == by_hand.tolist()
    arm, _, day, event, count = pooled.cells()
    arm_z, stratum, day_z, event_z, count_z = trials.cells()
    x_cells = np.column_stack([arm_z, *trials.dummies(stratum)]).astype(np.float64)
    for ties in ("efron", "breslow"):
        crude = _fit_outcome(cox_fit, treatment[:, None], cohort.time, cohort.event, ties=ties)
        assert crude == _fit_outcome(
            cox_fit, arm[:, None].astype(np.float64), day, event, counts=count, ties=ties
        )
        traditional = _fit_outcome(cox_fit, x_subjects, cohort.time, cohort.event, ties=ties)
        assert traditional == _fit_outcome(
            cox_fit, x_cells, day_z, event_z, counts=count_z, ties=ties
        )
    by_subject = km_fit(cohort.time, cohort.event, cohort.treatment)
    by_cell = km_fit(day, event, arm, counts=count)
    assert by_subject.groups.keys() == by_cell.groups.keys()
    for arm_label, group in by_subject.groups.items():
        other = by_cell.groups[arm_label]
        for name in ("times", "at_risk", "events", "survival"):
            assert getattr(group, name).tobytes() == getattr(other, name).tobytes()


def _curve(days, counts0, counts1, sizes):
    days = np.asarray(days, dtype=np.int64)
    counts = np.vstack(
        [np.asarray(counts0, dtype=float), np.asarray(counts1, dtype=float)]
    )
    p = counts / np.array([[sizes[0]], [sizes[1]]], dtype=float)
    return AdjustedCurve(days, p, counts, dict(sizes))


def _rows(pseudo, arm):
    """(day, event, count) cells of one arm by day, a day's deaths before its survivors."""
    arms, _, day, event, count = pseudo.cells()
    rows = zip(arms.tolist(), day.tolist(), event.tolist(), count.tolist())
    return sorted(((d, e, k) for a, d, e, k in rows if a == arm), key=lambda r: (r[0], -r[1]))


def _alive(pseudo, arm, days):
    """Arm size minus the cumulative event count at each of ``days``."""
    rows = _rows(pseudo, arm)
    size = sum(count for _, _, count in rows)
    return [
        size - sum(count for day, event, count in rows if event == 1 and day <= d)
        for d in days
    ]


def test_reconstruction_consecutive_differences():
    curve = _curve([0, 1, 2, 3], [100, 90, 90, 80], [100, 90, 90, 80], {0: 100, 1: 100})
    pseudo = from_adjusted_counts(curve)
    assert _rows(pseudo, 0) == [(1, 1, 10), (3, 1, 10), (3, 0, 80)]
    assert _rows(pseudo, 1) == _rows(pseudo, 0)
    assert pseudo.n == 200
    # one stratum on the curve's grid: deaths at [arm, 0, g, 1], survivors at [arm, 0, -1, 0]
    assert (pseudo.covariates, pseudo.strata, pseudo.shape) == ((), ((),), ())
    assert pseudo.days.tolist() == [0, 1, 2, 3]
    assert pseudo.counts[0, 0].tolist() == [[0, 0], [0, 10], [0, 0], [80, 10]]


def test_reconstruction_constant_counts_all_censored():
    curve = _curve([0, 1, 2], [50, 50, 50], [50, 50, 50], {0: 50, 1: 50})
    pseudo = from_adjusted_counts(curve)
    assert _rows(pseudo, 0) == [(2, 0, 50)]
    assert _rows(pseudo, 1) == [(2, 0, 50)]


def test_reconstruction_fractional_counts_rounding():
    # arm of 10 with counts [10, 9.5, 8.5]: the tied .5 goes to the earlier
    # day, integerizing to [10, 9, 8]
    curve = _curve([0, 1, 2], [10, 9.5, 8.5], [10, 10, 10], {0: 10, 1: 10})
    pseudo = from_adjusted_counts(curve)
    assert _alive(pseudo, 0, [0, 1, 2]) == [10, 9, 8]
    assert _rows(pseudo, 0) == [(1, 1, 1), (2, 1, 1), (2, 0, 8)]


def test_reconstruction_death_at_day_zero():
    curve = _curve([0, 1], [8, 5], [10, 10], {0: 10, 1: 10})
    pseudo = from_adjusted_counts(curve)
    assert _rows(pseudo, 0) == [(0, 1, 2), (1, 1, 3), (1, 0, 5)]


def test_reconstruction_preserves_arm_totals_and_stays_within_half():
    rng = np.random.default_rng(3)
    for _ in range(30):
        k = int(rng.integers(2, 12))
        days = np.unique(rng.integers(0, 40, size=k))
        if days[0] != 0:
            days = np.concatenate(([0], days))
        sizes = {0: int(rng.integers(5, 60)), 1: int(rng.integers(5, 60))}
        counts = []
        for arm in (0, 1):
            drops = rng.uniform(0, 1, size=len(days))
            c = sizes[arm] - np.cumsum(drops)
            c = np.maximum(c, 0.0)
            counts.append(c)
        curve = _curve(days, counts[0], counts[1], sizes)
        pseudo = from_adjusted_counts(curve)
        assert all(count > 0 for _, _, count in _rows(pseudo, 0) + _rows(pseudo, 1))
        assert pseudo.n == sizes[0] + sizes[1]
        for arm in (0, 1):
            assert sum(count for _, _, count in _rows(pseudo, arm)) == sizes[arm]
            ints = np.array(_alive(pseudo, arm, days))
            assert np.all(np.abs(ints - counts[arm]) <= 0.5 + 1e-12)
            assert np.all(np.diff(ints) <= 0)


def test_reconstruction_rejects_increasing_counts():
    curve = _curve([0, 1], [5, 9], [10, 10], {0: 10, 1: 10})
    with pytest.raises(errors.NonMonotoneCounts):
        from_adjusted_counts(curve)


def test_round_trip_identity_without_censoring():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        rows = [
            (int(rng.integers(0, 2)), int(rng.integers(0, 15)), 1, "0")
            for _ in range(n)
        ]
        rows[0] = (1, rows[0][1], 1, "0")
        rows[-1] = (0, rows[-1][1], 1, "0")
        cohort = cohort_from_rows(rows)
        curve = unadjusted_curve(to_daily_trials(cohort, ()))
        assert curve.arm_sizes == cohort.arm_sizes()
        pseudo = from_adjusted_counts(curve)
        for arm in (0, 1):
            orig = sorted(
                t for (x, t, s, _) in rows if x == arm and s == 1
            )
            rebuilt = sorted(
                day for x, day, event in expand(pseudo) if x == arm and event == 1
            )
            assert rebuilt == orig
