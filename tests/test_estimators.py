import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsurv import errors, estimators
from causalsurv.estimators import Z_95, cox_fit, hr_report, km_fit

from oracles import (
    central_difference,
    cox_eval_loops,
    direct_loglik,
    golden_section_max,
    gradient_at,
    km_per_group,
    random_tie_free_dataset,
)

# maximizer of the 4-subject partial likelihood
# 2b - log(2e^b + 2) - log(e^b + 2) - log(e^b + 1), i.e. ln((1 + sqrt(17)) / 2)
FOUR_SUBJECT_BETA = 0.9406136421072088
FOUR_SUBJECT_HR = 2.5615528128088303


# --- Kaplan-Meier ---------------------------------------------------------------

def test_km_product_limit_hand_case():
    curve = km_fit([1, 2, 2, 3], [1, 1, 1, 1])
    group = curve.groups[0]
    assert group.times.tolist() == [1, 2, 3]
    assert group.at_risk.tolist() == [4, 3, 1]
    assert group.events.tolist() == [1, 2, 1]
    assert abs(group.survival[0] - 3 / 4) <= 1e-15
    assert abs(group.survival[1] - 1 / 4) <= 1e-15
    assert group.survival[2] == 0.0


def test_km_all_censored_is_flat_one():
    curve = km_fit([3, 5, 7], [0, 0, 0])
    for t in (0, 3, 5, 7):
        assert curve.survival_at(0, t) == 1.0


def test_km_no_censoring_equals_empirical_survival():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 50))
        times = rng.integers(0, 20, size=n)
        curve = km_fit(times, np.ones(n, dtype=int))
        for t in range(21):
            assert curve.survival_at(0, t) == pytest.approx(
                (times > t).mean(), abs=1e-12
            )


def test_km_recomputation_from_own_columns():
    rng = np.random.default_rng(77)
    times = rng.integers(0, 15, size=60)
    events = rng.integers(0, 2, size=60)
    events[0] = 1
    curve = km_fit(times, events)
    group = curve.groups[0]
    redo = np.cumprod(1.0 - group.events / group.at_risk)
    assert np.all(np.abs(redo - group.survival) <= 1e-15)


def test_km_censored_leave_risk_set_after_their_time():
    # censored at 2 still at risk for the event at 2
    curve = km_fit([1, 2, 2, 4], [1, 0, 1, 1])
    group = curve.groups[0]
    assert group.times.tolist() == [1, 2, 4]
    assert group.at_risk.tolist() == [4, 3, 1]


def test_km_groups_are_separate():
    curve = km_fit([1, 2, 3, 4], [1, 1, 1, 1], [0, 0, 1, 1])
    assert curve.groups[0].times.tolist() == [1, 2]
    assert curve.groups[1].times.tolist() == [3, 4]


def test_km_length_mismatch():
    with pytest.raises(errors.LengthMismatch):
        km_fit([1, 2], [1])


def test_km_empty_input():
    with pytest.raises(errors.EmptyGroup):
        km_fit([], [])


# --- Cox fitter -----------------------------------------------------------------

def test_cox_symmetric_arms_give_hr_exactly_one():
    # identical event-time multisets in both arms, including ties
    times = [1, 1, 2, 3, 3, 3, 5] * 2
    x = [1.0] * 7 + [0.0] * 7
    fit = cox_fit(np.array(x)[:, None], times, np.ones(14, dtype=int))
    assert fit.beta[0] == 0.0
    assert hr_report(fit)[0] == 1.0
    assert fit.converged


def test_cox_four_subject_golden_value():
    fit = cox_fit(
        np.array([1.0, 0.0, 1.0, 0.0])[:, None], [1, 2, 3, 4], [1, 1, 1, 1]
    )
    assert fit.converged
    assert abs(fit.beta[0] - FOUR_SUBJECT_BETA) <= 1e-6
    assert abs(hr_report(fit)[0] - FOUR_SUBJECT_HR) <= 1e-5


def test_cox_complete_separation_raises():
    # treated die strictly first
    with pytest.raises(errors.MonotoneLikelihood):
        cox_fit(
            np.array([1.0, 1.0, 0.0, 0.0])[:, None], [1, 2, 3, 4], [1, 1, 1, 1]
        )


def test_cox_no_events():
    with pytest.raises(errors.NoEvents):
        cox_fit(np.array([1.0, 0.0])[:, None], [1, 2], [0, 0])


def test_cox_constant_covariate():
    with pytest.raises(errors.ConstantCovariate):
        cox_fit(np.ones((4, 1)), [1, 2, 3, 4], [1, 1, 1, 1])


@pytest.mark.parametrize(
    "events, counts",
    [
        ([1, 0, 1, 0, 1, 1], [0.5, 1, 1, 1, 1, 1]),  # a failure time under one weighted failure
        ([1, 1, 1, 0, 1, 1], [1.5, 2, 1, 1, 2, 1]),  # fractional
        ([1, 0, 1, 0, 1, 1], [-1, 1, 1, 1, 1, 1]),  # negative
        ([1, 0, 1, 0, 1, 1], [np.inf, 1, 1, 1, 1, 1]),  # not finite
    ],
)
def test_counts_must_be_non_negative_whole_numbers(events, counts):
    x = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])[:, None]
    times = [1, 1, 2, 2, 3, 3]
    with pytest.raises(ValueError, match="non-negative whole numbers"):
        cox_fit(x, times, events, counts=counts)
    with pytest.raises(ValueError, match="non-negative whole numbers"):
        km_fit(times, events, counts=counts)


FOUR_X = [[1.0], [0.0], [1.0], [0.0]]


@pytest.mark.parametrize(
    "fit, args, kwargs, error, match",
    [
        (cox_fit, (FOUR_X, [1, 2, 3, 4], [1, 2, 1, 1]), {}, ValueError, "events must be 0 or 1"),
        (cox_fit, ([[1.0], [np.nan], [1.0], [0.0]], [1, 2, 3, 4], [1, 1, 1, 1]), {},
         ValueError, "must be finite"),
        (cox_fit, (FOUR_X, [1, 2, 3, np.inf], [1, 1, 1, 1]), {}, ValueError, "must be finite"),
        (cox_fit, (FOUR_X, [1, 2, 3, 4], [1, 0, 1, 0]), {"counts": [0, 1, 0, 1]},
         errors.NoEvents, "no events"),
        (km_fit, ([1, 2, np.nan, 4], [1, 1, 1, 1]), {}, ValueError, "must be finite"),
        (km_fit, ([1, 2, 3, 4], [1, 2, 1, 1]), {}, ValueError, "events must be 0 or 1"),
        (cox_fit, (FOUR_X, [1, 2, 3, 4], [1, 0, 1, 1]), {"ties": "exact"},
         ValueError, "ties must be 'efron' or 'breslow', got 'exact'"),
        (km_fit, ([1, 2, 3, 4], [1, 1, 1, 1]), {"counts": [1, 1, 1]},
         errors.LengthMismatch, "counts differs in length from times"),
        (km_fit, ([1, 2, 3, 4], [1, 1, 1, 1], [0, 1, 0]), {},
         errors.LengthMismatch, "groups differs in length from times"),
        (cox_fit, (FOUR_X[:3], [1, 2, 3, 4], [1, 1, 1, 1]), {},
         errors.LengthMismatch, "covariates, times, and events differ in length"),
    ],
    ids=["cox-event-2", "cox-nan-covariate", "cox-inf-time", "cox-zero-weighted-events",
         "km-nan-time", "km-event-2", "cox-ties-exact", "km-short-counts", "km-short-groups",
         "cox-short-covariates"],
)
def test_malformed_fit_arguments_are_rejected(fit, args, kwargs, error, match):
    with pytest.raises(error, match=match):
        fit(*args, **kwargs)


def test_cox_covariate_vector_fits_as_one_column():
    x, t, _ = random_tie_free_dataset(np.random.default_rng(5))
    events = np.ones(len(t), dtype=int)
    vector, column = cox_fit(x, t, events), cox_fit(x[:, None], t, events)
    assert vector.converged and vector.beta.shape == (1,)
    for a, b in zip(vector, column):
        assert np.array_equal(a, b)


def test_cox_collinear_columns_singular():
    x = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(errors.SingularHessian):
        cox_fit(x, [1, 2, 3, 4], [1, 1, 1, 1])


@pytest.mark.parametrize("a", [0.0, -0.0, -1.0, math.nan])
def test_one_coefficient_step_refuses_an_information_not_above_zero(a):
    with pytest.raises(errors.SingularHessian):
        estimators._newton_step(np.array([[a]]), np.array([0.5]))
    assert np.isnan(estimators._standard_errors(np.array([[a]]))).all()
    if a <= 0:
        # the same entry leading a 2 x 2 information, which takes Cholesky and inv
        with pytest.raises(errors.SingularHessian):
            estimators._newton_step(np.diag([a, 1.0]), np.array([0.5, 0.5]))
        assert np.isnan(estimators._standard_errors(np.diag([a, 1.0]))).all()


@pytest.mark.parametrize("a", [5e-324, 1e-300, 0.3, 1.0, 7.25, 1e300])
@pytest.mark.parametrize("g", [-0.7, 0.0, 3.0, 1e-310])
def test_one_coefficient_step_divides(a, g):
    step = estimators._newton_step(np.array([[a]]), np.array([g]))
    assert step.shape == (1,) and step[0] == g / a
    se = estimators._standard_errors(np.array([[a]]))
    assert se.shape == (1,) and se[0] == math.sqrt(1.0 / a)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_step_refuses_a_non_finite_information(a):
    for info in (np.diag([a, 1.0]), np.array([[1.0, a], [a, 1.0]]), np.full((3, 3), a)):
        with pytest.raises(errors.SingularHessian):
            estimators._newton_step(info, np.full(len(info), 0.5))


def test_two_coefficient_fit_whose_moments_overflow_is_singular():
    # x x^T of the first column overflows, so the information is NaN, which
    # OpenBLAS's Cholesky returns without an error: the fit must stop at once
    # rather than iterate on NaN
    x = np.column_stack(((1.0, 3.0, 2.0, 5.0, 4.0), (0.0, 1.0, 1.0, 0.0, 1.0))) * (1e160, 1.0)
    with np.errstate(all="ignore"), pytest.raises(errors.SingularHessian):
        cox_fit(x, [1, 2, 3, 4, 5], [1, 1, 0, 1, 1])


def test_cox_fit_takes_a_column_major_covariate_matrix():
    rng = np.random.default_rng(17)
    x = rng.integers(0, 3, size=(60, 3)).astype(np.float64)
    t, d = rng.integers(1, 9, size=60), rng.integers(0, 2, size=60)
    merged = estimators._prepare(x, t, d)  # distinct rows in order: they skip the merge
    for x, t, d, counts in ((x, t, d, None), merged):
        fits = [cox_fit(a, t, d, counts=counts) for a in (np.ascontiguousarray(x), np.asfortranarray(x))]
        for a, b in zip(*fits):
            assert np.array_equal(a, b)


@st.composite
def km_inputs(draw):
    """1-40 rows: unsorted float or int times, int or str labels, counts 0-3 or none.

    Every row of one drawn label is censored, so a group without events
    turns up whenever that label does.
    """
    n = draw(st.integers(1, 40))
    time = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, 7.0, 7.25]) | st.integers(0, 9).map(float)
    times = draw(st.lists(time, min_size=n, max_size=n))
    if draw(st.booleans()):
        times = [int(v) for v in times]
    pool = draw(st.sampled_from([[-3, 0, 1, 2], ["a", "b", "c"]]))
    groups = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    silent = draw(st.sampled_from(pool))
    events = [draw(st.integers(0, 1)) if g != silent else 0 for g in groups]
    counts = draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return np.array(times), np.array(events), np.array(groups), counts


@settings(max_examples=300)
@given(km_inputs())
def test_km_matches_one_pass_per_group(inputs):
    times, events, groups, counts = inputs
    got = km_fit(times, events, groups, counts=counts).groups
    want = km_per_group(times, events, groups, counts)
    assert [(type(k), k) for k in got] == [(type(k), k) for k in want]
    for group, fields in zip(got.values(), want.values()):
        for name, g, w in zip(group._fields, group, fields):
            assert (g.dtype, g.shape) == (w.dtype, w.shape), name
            # bit for bit, but a time of 0.0 may stand for another group's -0.0 rows
            assert np.array_equal(g, w) if name == "times" else g.tobytes() == w.tobytes(), name


def test_km_memory_is_linear_in_the_rows_however_many_groups():
    # 3 000 rows in 3 000 groups at 3 000 times: a groups x times array would
    # take 72 MB, while the groups' own arrays take about 100 x 8 bytes a row
    n = 3000
    rng = np.random.default_rng(1)
    times, groups, events = rng.permutation(n).astype(float), rng.permutation(n), rng.integers(0, 2, n)
    tracemalloc.start()
    curve = km_fit(times, events, groups)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(curve.groups) == n and peak < 300 * n * 8


# --- row preparation ---------------------------------------------------------------

@st.composite
def fit_inputs(draw):
    """1-40 rows of p = 1-3 columns, repeats likely, with counts 0-3 and a permutation.

    Times come from a few values, 0.0 and -0.0 among them; covariates are
    0/1 or small floats, -0.0 among them.
    """
    p = draw(st.integers(1, 3))
    time = st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0])
    cell = st.sampled_from([0.0, 1.0]) | st.sampled_from([-0.0, 0.5, -1.25, 3.0])
    row = st.tuples(time, st.integers(0, 1), st.lists(cell, min_size=p, max_size=p))
    pool = draw(st.lists(row, min_size=1, max_size=8))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    t, d, x = (np.array(v, dtype=np.float64) for v in zip(*picks))
    counts = np.array(draw(st.lists(st.integers(0, 3), min_size=len(t), max_size=len(t))))
    return x, t, d, counts, np.array(draw(st.permutations(range(len(t)))))


def _prepared(x, t, d, counts):
    try:
        return estimators._prepare(x, t, d, counts)
    except (errors.NoEvents, errors.ConstantCovariate) as exc:
        return type(exc)


def _same_arrays(got, want):
    return all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want)
    )


@settings(max_examples=400)
@given(fit_inputs())
def test_prepare_is_a_fixed_point_and_ignores_row_order(inputs):
    x, t, d, counts, order = inputs
    out = _prepared(x, t, d, counts)
    shuffled = _prepared(x[order], t[order], d[order], counts[order])
    if isinstance(out, type):  # an error, whatever the order
        assert shuffled is out
        return
    assert _same_arrays(shuffled, out)
    assert _same_arrays(_prepared(*out), out)


def test_prepare_sorts_equal_times_in_the_wrong_byte_order():
    # numerically equal times, rows in descending byte order: covariate 1.0
    # before 0.0, and a -0.0 time before a 0.0 time
    for t, x in (([2.0, 2.0], [1.0, 0.0]), ([-0.0, 0.0], [0.0, 1.0])):
        t, x = np.array(t), np.array(x)[:, None]
        d = np.ones(2)
        assert not estimators._in_order(np.column_stack((t, d, x)))
        got = estimators._prepare(x, t, d)
        assert _same_arrays(got, estimators._prepare(x[::-1], t[::-1], d))
        assert _same_arrays(got, (x[::-1], t[::-1], d, np.ones(2)))


def test_cox_efron_equals_breslow_without_ties():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x, t, _ = random_tie_free_dataset(rng)
        events = np.ones(len(t), dtype=int)
        fe = cox_fit(x[:, None], t, events, ties="efron")
        fb = cox_fit(x[:, None], t, events, ties="breslow")
        assert abs(fe.beta[0] - fb.beta[0]) <= 1e-10
        assert abs(fe.loglik - fb.loglik) <= 1e-10


def test_cox_score_zero_at_optimum():
    rng = np.random.default_rng(41)
    for _ in range(20):
        x, t, _ = random_tie_free_dataset(rng)
        fit = cox_fit(x[:, None], t, np.ones(len(t), dtype=int))
        if not fit.converged:
            continue
        grad = gradient_at(x[:, None], t, np.ones(len(t), dtype=int), fit.beta)
        assert np.abs(grad).max() <= 1e-6


def test_cox_matches_golden_section_oracle():
    rng = np.random.default_rng(53)
    for _ in range(40):
        x, t, beta_gs = random_tie_free_dataset(rng)
        fit = cox_fit(x[:, None], t, np.ones(len(t), dtype=int))
        assert fit.converged
        assert abs(fit.beta[0] - beta_gs) <= 1e-4


def test_cox_gradient_matches_finite_differences():
    rng = np.random.default_rng(67)
    for _ in range(20):
        x, t, _ = random_tie_free_dataset(rng)
        events = np.ones(len(t), dtype=int)
        beta0 = float(rng.uniform(-1.0, 1.0))
        fd = central_difference(lambda b: direct_loglik(x, t, b), beta0)
        if abs(fd) < 1e-2:
            continue
        grad = gradient_at(x[:, None], t, events, np.array([beta0]))
        assert abs(grad[0] - fd) / abs(fd) <= 1e-4


def test_cox_information_is_positive_definite_at_optimum():
    rng = np.random.default_rng(71)
    x, t, _ = random_tie_free_dataset(rng)
    from causalsurv._cox_kernels import cox_eval, cox_layout

    fit = cox_fit(x[:, None], t, np.ones(len(t), dtype=int))
    order = np.argsort(t, kind="stable")
    layout = cox_layout(
        np.ascontiguousarray(x[order][:, None]),
        np.ascontiguousarray(t[order].astype(float)),
        np.ascontiguousarray(np.ones(len(t), dtype=np.uint8)),
        np.ones(len(t)),
        True,
    )
    _, _, info = cox_eval(layout, fit.beta)
    np.linalg.cholesky(info)  # raises if not positive definite


def test_cox_loglik_value_matches_direct_evaluation():
    rng = np.random.default_rng(83)
    x, t, _ = random_tie_free_dataset(rng)
    fit = cox_fit(x[:, None], t, np.ones(len(t), dtype=int))
    assert fit.loglik == pytest.approx(direct_loglik(x, t, fit.beta[0]), abs=1e-9)


def test_cox_ci_brackets_hr():
    rng = np.random.default_rng(97)
    x, t, _ = random_tie_free_dataset(rng)
    fit = cox_fit(x[:, None], t, np.ones(len(t), dtype=int))
    hr, lo, hi = hr_report(fit)
    assert lo < hr < hi
    assert hr > 0


# --- Newton paths: step-halving and the iteration limit -----------------------------

# The first full Newton step from beta = 0 lowers the log-likelihood from
# -6.068 to -6.467; one halving recovers, and beta = -2.394 in 3 iterations.
HALVING_X = np.array([[1.0], [1.0], [1.0], [1.0], [1.0], [1.0], [0.0], [1.0], [1.0]])
HALVING_T = np.array([5, 1, 1, 3, 4, 5, 1, 5, 3])
HALVING_D = np.array([1, 0, 1, 0, 0, 1, 1, 0, 0])


def test_cox_halves_a_step_that_lowers_the_likelihood(monkeypatch):
    lls, cox_eval = [], estimators.cox_eval

    def counted(layout, beta):
        out = cox_eval(layout, beta)
        lls.append(out[0])
        return out

    monkeypatch.setattr(estimators, "cox_eval", counted)
    fit = cox_fit(HALVING_X, HALVING_T, HALVING_D)
    assert fit.converged and fit.iterations == 3
    # one evaluation at beta = 0 and one per iteration, plus the rejected full step
    assert len(lls) == fit.iterations + 2
    assert lls[1] < lls[0]
    order = np.argsort(HALVING_T, kind="stable")
    x, t, d = HALVING_X[order], HALVING_T[order], HALVING_D[order]
    beta_gs = golden_section_max(lambda b: cox_eval_loops(x, t, d, np.array([b]), True)[0])
    assert abs(fit.beta[0] - beta_gs) <= 1e-6


def test_cox_exhausting_max_iter_is_not_converged(monkeypatch):
    monkeypatch.setattr(estimators, "MAX_ITER", 1)
    fit = cox_fit(HALVING_X, HALVING_T, HALVING_D)
    assert fit.converged is False and fit.iterations == 1
    with pytest.raises(errors.NotConverged):
        hr_report(fit)


def test_cox_singular_final_check_is_not_converged(monkeypatch):
    # the collinear fit of test_cox_collinear_columns_singular, with no
    # iterations: only the last pass, which tests the fit, meets the singular information
    monkeypatch.setattr(estimators, "MAX_ITER", 0)
    x = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    fit = cox_fit(x, [1, 2, 3, 4], [1, 1, 1, 1])
    assert fit.converged is False and fit.iterations == 0


# --- hazard-ratio report ----------------------------------------------------------

def _fake_fit(beta, se, converged=True):
    from causalsurv.estimators import CoxFit

    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    se = np.atleast_1d(np.asarray(se, dtype=float))
    return CoxFit(beta, se, 0.0, 5, converged)


def test_hr_report_zero_beta():
    hr, lo, hi = hr_report(_fake_fit(0.0, 0.1))
    assert hr == 1.0
    assert lo == pytest.approx(math.exp(-Z_95 * 0.1), abs=1e-12)
    assert hi == pytest.approx(math.exp(Z_95 * 0.1), abs=1e-12)
    assert (round(lo, 3), round(hi, 3)) == (0.822, 1.217)


def test_hr_report_log_two():
    hr, _, _ = hr_report(_fake_fit(math.log(2.0), 0.2))
    assert hr == pytest.approx(2.0, abs=1e-15)


def test_hr_report_requires_convergence():
    with pytest.raises(errors.NotConverged):
        hr_report(_fake_fit(0.0, 0.1, converged=False))


def test_hr_report_refuses_a_non_finite_interval():
    # a converged fit whose upper bound exp(400 * Z_95) overflows
    with pytest.raises(errors.NonFiniteEstimate):
        hr_report(_fake_fit(0.0, 400.0))
