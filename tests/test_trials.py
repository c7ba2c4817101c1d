from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsurv import errors
from causalsurv.adjust import AdjustedCurve, adjust_curve, unadjusted_curve
from causalsurv.estimators import _prepare, cox_fit, km_fit
from causalsurv.graph import AdjustmentSet, satisfies_backdoor, validate_dag
from causalsurv.trials import _level_codes, from_adjusted_counts, to_daily_trials

from oracles import cohort_from_rows, exact_pseudo_cohort, expand, first_empty_cell

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
    cell = trials.counts[1, trials.levels[0].index("0")]
    size = cell.sum()
    assert (size - cell[trials.days <= 3, 1].sum()) / size == 0.75
    assert (size - cell[trials.days <= 2, 1].sum()) / size == 1.0


def test_proportions_positivity_violation():
    cohort = cohort_from_rows([(1, 3, 1, "0"), (0, 2, 1, "0"), (0, 4, 1, "1")])
    with pytest.raises(errors.PositivityViolation) as exc:
        adjust_curve(cohort, to_daily_trials(cohort, {"z"}), ZSET)
    assert "arm=1" in str(exc.value)


def _balanced_cohort():
    # 100 subjects per z level; 75/25 treated split within each level
    rows = []
    for z in ("0", "1"):
        treated = 75 if z == "0" else 25
        rows += [(1 if k < treated else 0, 5 + k, 1, z) for k in range(100)]
    return cohort_from_rows(rows)


def _strata(trials):
    """Each stratum's level tuple, decoded one int index at a time."""
    return [
        tuple(levels[c] for levels, c in zip(trials.levels, _level_codes(s, trials.levels)))
        for s in range(trials.counts.shape[1])
    ]


def _arm_counts(cohort, covariates):
    """Subjects per (arm, stratum), zero cells included, read from the count table."""
    trials = to_daily_trials(cohort, covariates)
    strata = _strata(trials)
    rows = trials.counts.sum(axis=(2, 3)).T.tolist()
    return strata, {(arm, combo): row[arm] for combo, row in zip(strata, rows) for arm in (0, 1)}


def test_stratum_counts_biased_split():
    _, counts = _arm_counts(_balanced_cohort(), {"z"})
    assert counts[(1, ("0",))] == 75
    assert counts[(1, ("1",))] == 25
    assert counts[(0, ("0",))] + counts[(1, ("0",))] == 100


def test_stratum_counts_empty_selection_is_single_stratum():
    strata, counts = _arm_counts(_balanced_cohort(), set())
    assert strata == [()]
    assert counts[(1, ())] == 100
    assert counts[(0, ())] == 100


def test_stratum_counts_records_zero_cells():
    cohort = cohort_from_rows([(1, 3, 1, "0"), (0, 2, 1, "0"), (0, 4, 1, "1")])
    _, counts = _arm_counts(cohort, {"z"})
    assert counts[(1, ("1",))] == 0
    assert [key for key, c in sorted(counts.items()) if c == 0] == [(1, ("1",))]


def test_stratum_counts_total_matches_subjects():
    cohort = _balanced_cohort()
    _, counts = _arm_counts(cohort, {"z"})
    assert sum(counts.values()) == cohort.n


def test_stratum_counts_unknown_covariate():
    with pytest.raises(errors.UnknownCovariate, match="^unknown covariate 'w'$"):
        to_daily_trials(_balanced_cohort(), {"w"})


def test_stratum_codes_match_per_subject_lookup():
    rng = np.random.default_rng(7)
    levels = {"a": ["u", "v", "w"], "b": ["0", "1"], "c": ["x", "y", "z", "zz"]}
    rows = [
        (
            int(rng.integers(0, 2)),
            int(rng.integers(0, 30)),
            int(rng.integers(0, 2)),
            *(str(rng.choice(vals)) for vals in levels.values()),
        )
        for _ in range(300)
    ]
    cohort = cohort_from_rows(rows, list(levels))
    cells = [dict(zip(levels, row[3:])) for row in rows]
    for covs in (("a",), ("c", "a"), ("a", "b", "c")):
        trials = to_daily_trials(cohort, covs)
        names = sorted(covs)
        strata = _strata(trials)
        # product order, the last covariate fastest
        assert strata == list(product(*(sorted(levels[c]) for c in names)))
        lookup = {combo: i for i, combo in enumerate(strata)}
        expected = Counter(
            (row[0], lookup[tuple(cell[c] for c in names)]) for row, cell in zip(rows, cells)
        )
        sizes = trials.counts.sum(axis=(2, 3))
        assert {(arm, s): int(sizes[arm, s]) for arm, s in expected} == dict(expected)
        assert sizes.sum() == sum(expected.values())
        # the array decoder agrees with the int one
        index = np.arange(len(strata))
        by_array = _level_codes(index, trials.levels)
        assert [tuple(int(c[s]) for c in by_array) for s in index] == [
            tuple(_level_codes(int(s), trials.levels)) for s in index
        ]


def _confounded_by(covariates):
    """A valid backdoor set of ``covariates``, each a confounder of x on t."""
    edges = [("x", "t")] + [(c, v) for c in covariates for v in ("x", "t")]
    dag = validate_dag([*covariates, "x", "t"], edges)
    return satisfies_backdoor(dag, set(covariates), "x", "t")


def test_first_empty_cell_matches_oracle():
    rng = np.random.default_rng(23)
    outcomes = Counter()
    for _ in range(400):
        n = int(rng.integers(2, 40))
        widths = rng.integers(1, 5, size=int(rng.integers(1, 5))).tolist()
        rows = [
            (int(rng.integers(0, 2)), int(rng.integers(0, 6)), int(rng.integers(0, 2)),
             *(int(rng.integers(0, m)) for m in widths))
            for _ in range(n)
        ]
        rows[0] = (1, *rows[0][1:])
        rows[-1] = (0, *rows[-1][1:])
        covs = [f"c{k}" for k in range(len(widths))]
        cohort = cohort_from_rows(rows, covs)
        expected = first_empty_cell(cohort, covs)
        past_n = np.prod([len(cohort.covariate_levels[c]) for c in covs]) > n
        try:
            trials = to_daily_trials(cohort, covs)
            assert not past_n, "a table with more strata than subjects was built"
            adjust_curve(cohort, trials, _confounded_by(covs))
        except errors.PositivityViolation as exc:
            assert (exc.arm, exc.stratum) == expected
            assert str(exc) == f"empty stratum: arm={expected[0]}, covariate levels={expected[1]!r}"
            outcomes["past n" if past_n else "empty cell"] += 1
        else:
            assert expected is None
            outcomes["occupied"] += 1
    assert min(outcomes.values()) >= 20 and len(outcomes) == 3, outcomes


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
    if np.prod([len(cohort.covariate_levels[c]) for c in covariates]) > cohort.n:
        # more strata than subjects: some cell is empty and no table is built
        with pytest.raises(errors.PositivityViolation):
            to_daily_trials(cohort, covariates)
        return
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
    assert (pooled.covariates, pooled.levels) == ((), ())
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


def test_cells_come_in_the_order_the_fitter_takes_rows():
    # a 3-level and a 2-level covariate: 6 strata, every (arm, stratum) cell occupied
    rng = np.random.default_rng(31)
    rows = [
        (i % 2, int(rng.integers(0, 12)), int(rng.integers(0, 2)),
         str(int(rng.integers(0, 3))), str(int(rng.integers(0, 2))))
        for i in range(240)
    ]
    cohort, curve = _pseudo_cohort(rows, ("a", "b"))
    trials = to_daily_trials(cohort, ("a", "b"))
    assert trials.counts.shape[1] == 6
    for table in (trials, trials.pooled(), from_adjusted_counts(curve)):
        arm, stratum, day, event, count = table.cells()
        x = np.column_stack([arm, *table.dummies(stratum)]).astype(np.float64)
        given = (x, day.astype(np.float64), event.astype(np.float64), count.astype(np.float64))
        for got, want in zip(_prepare(x, day, event, count), given):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        # each occupied cell once, with its count
        cells = list(zip(arm.tolist(), stratum.tolist(), day.tolist(), event.tolist()))
        assert len(set(cells)) == len(cells) == np.count_nonzero(table.counts)
        g = np.searchsorted(table.days, day)
        assert table.counts[arm, stratum, g, event].tolist() == count.tolist()
        assert count.sum() == table.n


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
    assert (pseudo.covariates, pseudo.levels) == ((), ())
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
    # a count above the arm size is an increase from the size itself
    curve = _curve([0, 1], [12, 9], [10, 10], {0: 10, 1: 10})
    with pytest.raises(errors.NonMonotoneCounts, match="adjusted count exceeds the arm size"):
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


def _pseudo_cohort(rows, covariates):
    cohort = cohort_from_rows(rows, covariates)
    trials = to_daily_trials(cohort, covariates)
    zset = AdjustmentSet(frozenset(covariates), True, "x", "t")
    return cohort, adjust_curve(cohort, trials, zset)


def test_a_tied_half_death_rounds_up_exactly():
    # arm 1's adjusted deaths by day 3 are exactly 5/2, which the curve's
    # floating-point sum gives as 2.4999999999999982; half-up makes them 3
    rows = [
        (0, 3, 1, "0"), (1, 1, 0, "1"), (0, 8, 0, "0"), (1, 1, 0, "0"), (0, 7, 0, "1"),
        (1, 5, 1, "1"), (0, 9, 0, "0"), (1, 10, 0, "1"), (0, 0, 1, "2"), (1, 3, 1, "2"),
        (0, 6, 1, "1"), (1, 1, 0, "1"), (0, 11, 0, "0"), (1, 7, 0, "2"), (0, 3, 1, "1"),
        (1, 3, 1, "1"), (0, 5, 1, "0"), (1, 5, 1, "0"), (0, 2, 1, "0"), (1, 2, 1, "1"),
        (0, 10, 1, "2"), (1, 1, 0, "0"),
    ]
    cohort, curve = _pseudo_cohort(rows, ("z",))
    day3 = curve.grid.tolist().index(3)
    assert curve.arm_sizes[1] - curve.counts[1, day3] == 2.4999999999999982
    pseudo = from_adjusted_counts(curve)
    assert _alive(pseudo, 1, [2, 3]) == [10, 8]
    assert sorted(expand(pseudo)) == exact_pseudo_cohort(cohort, ("z",))


@st.composite
def alternating_cohorts(draw):
    """4-39 subjects in alternating arms over days 0-11, covariates of 1-3 and 1-2 levels."""
    n = draw(st.integers(4, 39))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    return [
        (i % 2, draw(st.integers(0, 11)), draw(st.integers(0, 1)),
         str(draw(st.integers(0, a - 1))), str(draw(st.integers(0, b - 1))))
        for i in range(n)
    ]


@settings(max_examples=300, deadline=None)
@given(alternating_cohorts())
def test_pseudo_cohort_is_the_exact_half_up_rounding(rows):
    try:
        cohort, curve = _pseudo_cohort(rows, ("a", "b"))
    except errors.PositivityViolation:
        return
    pseudo = from_adjusted_counts(curve)
    assert sorted(expand(pseudo)) == exact_pseudo_cohort(cohort, ("a", "b"))
    # each integerized count stays within 0.5 of the curve's, and never rises
    for arm in (0, 1):
        ints = np.array(_alive(pseudo, arm, curve.grid.tolist()))
        assert np.all(np.abs(ints - curve.counts[arm]) <= 0.5 + 1e-9)
        assert np.all(np.diff(ints) <= 0)
