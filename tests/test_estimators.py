import math

import numpy as np
import pytest

from causalsurv import errors, estimators
from causalsurv.estimators import Z_95, cox_fit, hr_report, km_fit

from oracles import (
    central_difference,
    cox_eval_loops,
    direct_loglik,
    golden_section_max,
    gradient_at,
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
    ],
    ids=["cox-event-2", "cox-nan-covariate", "cox-inf-time", "cox-zero-weighted-events",
         "km-nan-time", "km-event-2"],
)
def test_malformed_fit_arguments_are_rejected(fit, args, kwargs, error, match):
    with pytest.raises(error, match=match):
        fit(*args, **kwargs)


def test_cox_collinear_columns_singular():
    x = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(errors.SingularHessian):
        cox_fit(x, [1, 2, 3, 4], [1, 1, 1, 1])


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
