"""Kaplan-Meier curves and the Cox proportional-hazards fitter.

The Cox model leaves the baseline hazard unspecified; the coefficient
vector is the maximizer of the log partial likelihood, found by
Newton-Raphson with step-halving.  The treatment hazard ratio is
exp(beta_treatment) with a Wald interval on the log scale.

Tied event times default to the Efron correction: the pseudo-cohort
produced by the adjustment pipeline has day-granularity times with heavy
ties, where Efron is materially more accurate than Breslow.  Breslow stays
available for cross-checks against tools that default to it.
"""

import math
from typing import NamedTuple

import numpy as np

from ._cox_kernels import cox_eval, cox_layout
from .errors import (
    ConstantCovariate,
    EmptyGroup,
    LengthMismatch,
    MonotoneLikelihood,
    NoEvents,
    NonFiniteEstimate,
    NotConverged,
    SingularHessian,
)

__all__ = ["KmCurve", "CoxFit", "km_fit", "cox_fit", "hr_report", "Z_95"]

# Wald 95% normal quantile, pinned so reports are reproducible bit-for-bit.
Z_95 = 1.959964

# A coefficient walking past this magnitude signals a monotone likelihood
# (complete separation): exp(50) is far beyond any meaningful hazard ratio.
SEPARATION_BOUND = 50.0

# Newton iterations before a fit returns converged=False, and the score
# max-norm that, together with the step tolerance, defines convergence.
MAX_ITER = 50
GRAD_TOL = 1e-8

# Newton step max-norm that, together with the gradient tolerance, defines
# convergence.  A flat likelihood keeps proposing O(1) steps even once the
# gradient underflows the tolerance, so requiring a small step lets complete
# separation iterate on until the coefficient bound trips instead of being
# reported as converged.
STEP_TOL = 1e-6


def _step_at(points, values, day):
    """The right-continuous step function taking ``values`` from ``points`` on, 1.0 before."""
    return np.concatenate(([1.0], values))[points.searchsorted(day, side="right")]


class KmGroup(NamedTuple):
    times: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    survival: np.ndarray

    def survival_at(self, day) -> np.ndarray:
        return _step_at(self.times, self.survival, day)


class KmCurve(NamedTuple):
    """Product-limit estimates per group, rows at distinct event times."""

    groups: dict

    def survival_at(self, group, day):
        return self.groups[group].survival_at(day)


def _weights(counts, n):
    """Per-row case weights as floats; None gives every row a weight of 1.

    Counts must be non-negative whole numbers: the Efron correction gives a
    failure time one term per weighted failure.
    """
    if counts is None:
        return np.ones(n)
    c = np.asarray(counts, dtype=np.float64)
    if c.shape != (n,):
        raise LengthMismatch("counts differs in length from times")
    if not ((c >= 0) & (c == np.floor(c)) & np.isfinite(c)).all():
        raise ValueError("counts must be non-negative whole numbers")
    return c


def _check_events(events):
    if not ((events == 0) | (events == 1)).all():
        raise ValueError("events must be 0 or 1")


def km_fit(times, events, groups=None, *, counts=None) -> KmCurve:
    """Kaplan-Meier product-limit estimate per group.

    Survival steps down only at event times; censored subjects leave the
    risk set just after their censoring time.  ``counts`` gives how many
    subjects each row stands for.  Times must be finite and non-negative,
    and events 0 or 1 (``ValueError`` otherwise).  One pass over the times
    serves every group, in memory linear in the rows, however many groups.
    """
    times = np.asarray(times)
    events = np.asarray(events)
    if times.shape != events.shape:
        raise LengthMismatch("times and events differ in length")
    if groups is None:
        groups = np.zeros(times.shape, dtype=np.int64)
    else:
        groups = np.asarray(groups)
        if groups.shape != times.shape:
            raise LengthMismatch("groups differs in length from times")
    if times.size == 0:
        raise EmptyGroup("no subjects")
    if not ((times >= 0) & np.isfinite(times)).all():
        raise ValueError("times must be finite and non-negative")
    _check_events(events)
    weights = _weights(counts, times.size)

    # one cell per occupied (group, time): cells in group order, each group's in time order
    days, day_of = np.unique(times, return_inverse=True)
    labels, label_of = np.unique(groups, return_inverse=True)
    key = label_of * days.size + day_of
    order = key.argsort(kind="stable")
    key = key[order]
    starts = np.concatenate(([True], key[1:] != key[:-1]))
    cell = starts.cumsum() - 1
    cell_key = key[starts]
    # each cell's subjects and events, summed in row order
    subjects = np.bincount(cell, weights[order])
    failed = np.bincount(cell, (weights * (events == 1))[order])
    cell_days = days[cell_key % days.size]
    bounds = cell_key.searchsorted(np.arange(labels.size + 1) * days.size).tolist()
    out = {}
    for label, lo, hi in zip(labels.tolist(), bounds, bounds[1:]):
        at_risk_all = subjects[lo:hi][::-1].cumsum()[::-1]
        keep = failed[lo:hi] > 0
        event_times, at_risk, n_events = cell_days[lo:hi][keep], at_risk_all[keep], failed[lo:hi][keep]
        survival = (1.0 - n_events / at_risk).cumprod()
        out[label] = KmGroup(event_times, at_risk, n_events, survival)
    return KmCurve(out)


class CoxFit(NamedTuple):
    beta: np.ndarray
    se: np.ndarray
    loglik: float
    iterations: int
    converged: bool


def _in_order(rows) -> bool:
    """Whether the (time, event, covariates) ``rows`` are distinct and in the merge's order.

    The merge orders rows by time as a number, then by their bytes in
    memory order, as the void keys of ``np.unique`` compare; byte strings
    compare the same way.  So a 0.0 time comes before a -0.0 time.  Rows
    whose times are not sorted fail at the first, cheapest test.
    """
    t = rows[:, 0]
    if not (t[:-1] <= t[1:]).all():
        return False
    keys = rows.view(f"S{rows.itemsize * rows.shape[1]}").ravel()
    return bool(((t[:-1] < t[1:]) | (keys[:-1] < keys[1:])).all())


def _prepare(covariate_matrix, times, events, counts=None):
    """Distinct (time, event, covariates) rows sorted by time, with counts.

    The merge is what makes k copies of a row fit bit-for-bit like one row
    of count k: both reach the kernel as the same single row.
    """
    x = np.asarray(covariate_matrix, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    t = np.asarray(times, dtype=np.float64)
    d = np.asarray(events, dtype=np.float64)
    if not (x.shape[0] == t.shape[0] == d.shape[0]):
        raise LengthMismatch("covariates, times, and events differ in length")
    weights = _weights(counts, t.size)
    _check_events(d)
    if d @ weights == 0:
        raise NoEvents("no events in the data; the partial likelihood is empty")
    # a NaN or an infinity in a column shows in its maximum or its minimum; each
    # covariate is read as a row of its own, which reduces far faster than across rows
    xt = np.ascontiguousarray(x.T)
    top, bottom = xt.max(axis=1), xt.min(axis=1)
    finite = math.isfinite(t.max()) and math.isfinite(t.min())
    if not (finite and np.isfinite(top).all() and np.isfinite(bottom).all()):
        raise ValueError("times and covariates must be finite")
    constant = (top == bottom).nonzero()[0]
    if constant.size:
        raise ConstantCovariate(f"covariate column {int(constant[0])} is constant")
    rows = np.ascontiguousarray(np.column_stack((t, d, x)))  # C order whatever x's: a row is a byte key
    if _in_order(rows):
        # distinct rows in merge order, as DailyTrials.cells() gives them; + 0.0
        # makes a -0.0 count read 0.0, as the merge's bincount does
        return xt.T, t, d, weights + 0.0
    # Rows compare as fixed-width byte keys, which sorts several times faster
    # than np.unique(axis=0); the kernel needs time order only between times.
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    counts = np.bincount(inverse, weights)
    order = np.argsort(rows[first, 0], kind="stable")
    rows, counts = rows[first[order]], counts[order]
    return np.ascontiguousarray(rows[:, 2:]), rows[:, 0], rows[:, 1], counts


def cox_fit(covariate_matrix, times, events, *, counts=None, ties="efron") -> CoxFit:
    """Maximize the log partial likelihood by Newton-Raphson.

    A row of ``counts`` k fits exactly as k copies of it would.  Events
    other than 0 and 1, and times or covariates that are not finite, raise
    ``ValueError`` before any iteration; no weighted event raises
    :class:`NoEvents`.  Step-halving (up to 10 halvings per iteration)
    guards against log-likelihood decreases.  Standard errors come from the inverse of the
    observed information at the optimum.  Exhausting ``MAX_ITER`` returns a
    partial result with ``converged=False``; a coefficient running past
    +-50 raises :class:`MonotoneLikelihood` instead of being returned.
    """
    if ties not in ("efron", "breslow"):
        raise ValueError(f"ties must be 'efron' or 'breslow', got {ties!r}")
    x, t, d, counts = _prepare(covariate_matrix, times, events, counts)
    layout = cox_layout(x, t, d, counts, ties == "efron")

    beta = np.zeros(x.shape[1])
    ll, grad, info = cox_eval(layout, beta)
    converged = False
    # the last pass only tests the fit that MAX_ITER updates reached
    for iterations in range(MAX_ITER + 1):
        try:
            step = _newton_step(info, grad)
        except SingularHessian:
            if iterations == MAX_ITER:  # a singular information at the end leaves the fit unconverged
                break
            # A gradient already under tolerance with the curvature gone is
            # the underflow end-state of a monotone likelihood: the walk to
            # +-infinity ran out of floating-point range before the |beta|
            # bound tripped.
            if _max_abs(grad) <= GRAD_TOL and _max_abs(beta) > 1.0:
                raise MonotoneLikelihood(
                    "information matrix underflowed while a coefficient "
                    f"diverged (|beta| reached {_max_abs(beta):.1f}); the "
                    "partial likelihood is monotone (complete separation)"
                ) from None
            raise
        converged = _max_abs(grad) <= GRAD_TOL and _max_abs(step) <= STEP_TOL
        if converged or iterations == MAX_ITER:
            break
        scale = 1.0
        for _halving in range(10):
            cand = beta + scale * step
            ll_new, grad_new, info_new = cox_eval(layout, cand)
            if math.isfinite(ll_new) and ll_new >= ll - 1e-10 * (abs(ll) + 1.0):
                break
            scale *= 0.5
        beta, ll, grad, info = cand, ll_new, grad_new, info_new
        if _max_abs(beta) > SEPARATION_BOUND:
            raise MonotoneLikelihood(
                "a coefficient exceeded +-50 during iteration; the partial "
                "likelihood is monotone (complete separation)"
            )

    return CoxFit(beta, _standard_errors(info), float(ll), iterations, converged)


def _max_abs(v) -> float:
    """``np.abs(v).max()`` read as a Python float: NaN as soon as any entry is NaN."""
    values = v.tolist()
    return math.nan if any(map(math.isnan, values)) else max(map(abs, values))


def _newton_step(info, grad):
    """The Newton step info^-1 grad, or SingularHessian when info is not positive definite.

    Cholesky doubles as the concavity check: the observed information must
    be positive definite for the step to be an ascent direction.  A
    one-coefficient fit divides instead, and refuses an entry that is not
    above 0, the test reference LAPACK's Cholesky makes, which refuses a NaN.
    A larger information that is not finite is refused before Cholesky,
    since not every BLAS's Cholesky refuses a NaN (OpenBLAS's does not).
    """
    if info.shape == (1, 1):
        a = float(info[0, 0])
        if a > 0:
            return np.array([float(grad[0]) / a])
    elif np.isfinite(info).all():
        try:
            np.linalg.cholesky(info)
            return np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            pass
    raise SingularHessian("observed information is singular or not positive definite")


def _standard_errors(info):
    """sqrt of the diagonal of info^-1; all NaN if info is singular or that diagonal has a negative entry."""
    if info.shape == (1, 1):
        a = float(info[0, 0])
        return np.array([math.sqrt(1.0 / a) if a > 0 else math.nan])
    try:
        diag = np.linalg.inv(info).diagonal()
    except np.linalg.LinAlgError:
        diag = np.full(len(info), np.nan)
    return np.full(len(info), np.nan) if (diag < 0).any() else np.sqrt(diag)


def _hazard_ratio(beta: float, se: float, z: float) -> tuple[float, float, float]:
    """exp(beta) and its Wald interval exp(beta -+ z se), all finite, or NonFiniteEstimate."""
    with np.errstate(over="ignore"):  # an infinite bound is refused below
        hr, lo, hi = (float(np.exp(b)) for b in (beta, beta - z * se, beta + z * se))
    if not all(map(math.isfinite, (hr, lo, hi, se))):
        raise NonFiniteEstimate(
            f"beta {beta!r} with standard error {se!r} gives no finite "
            "hazard ratio and interval"
        )
    return hr, lo, hi


def hr_report(fit: CoxFit) -> tuple[float, float, float]:
    """Treatment (first column) hazard ratio and 95% Wald interval, or NotConverged or NonFiniteEstimate."""
    if not fit.converged:
        raise NotConverged("fit did not converge; refusing to report a hazard ratio")
    return _hazard_ratio(float(fit.beta[0]), float(fit.se[0]), Z_95)
