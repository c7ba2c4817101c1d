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


class KmGroup(NamedTuple):
    times: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    survival: np.ndarray

    def survival_at(self, day) -> np.ndarray:
        day = np.asarray(day)
        if self.times.size == 0:  # no events: survival is identically 1
            out = np.ones(day.shape)
            return out if out.shape else 1.0
        idx = np.searchsorted(self.times, day, side="right") - 1
        out = np.where(idx >= 0, self.survival[np.maximum(idx, 0)], 1.0)
        return out if out.shape else float(out)


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
    if not np.all((c >= 0) & (c == np.floor(c)) & np.isfinite(c)):
        raise ValueError("counts must be non-negative whole numbers")
    return c


def _check_events(events):
    if not np.all((events == 0) | (events == 1)):
        raise ValueError("events must be 0 or 1")


def km_fit(times, events, groups=None, *, counts=None) -> KmCurve:
    """Kaplan-Meier product-limit estimate per group.

    Survival steps down only at event times; censored subjects leave the
    risk set just after their censoring time.  ``counts`` gives how many
    subjects each row stands for.  Times must be finite and non-negative,
    and events 0 or 1 (``ValueError`` otherwise).
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
    if not np.all((times >= 0) & np.isfinite(times)):
        raise ValueError("times must be finite and non-negative")
    _check_events(events)
    weights = _weights(counts, times.size)

    out = {}
    for label in np.unique(groups):
        mask = groups == label
        t, d, c = times[mask], events[mask], weights[mask]
        days, day_of = np.unique(t, return_inverse=True)
        at_risk_all = np.cumsum(np.bincount(day_of, c)[::-1])[::-1]
        events_all = np.bincount(day_of[d == 1], c[d == 1], minlength=days.size)
        keep = events_all > 0
        event_times, at_risk, n_events = days[keep], at_risk_all[keep], events_all[keep]
        survival = np.cumprod(1.0 - n_events / at_risk)
        key = label.item() if hasattr(label, "item") else label
        out[key] = KmGroup(event_times, at_risk, n_events, survival)
    return KmCurve(out)


class CoxFit(NamedTuple):
    beta: np.ndarray
    se: np.ndarray
    loglik: float
    iterations: int
    converged: bool


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
    rows = np.column_stack((t, d, x))
    # a NaN or an infinity in a column shows in its maximum or its minimum
    top, bottom = rows.max(axis=0), rows.min(axis=0)
    if not (np.isfinite(top).all() and np.isfinite(bottom).all()):
        raise ValueError("times and covariates must be finite")
    flat = np.flatnonzero(top[2:] == bottom[2:])
    if flat.size:
        raise ConstantCovariate(f"covariate column {int(flat[0])} is constant")
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
            if np.abs(grad).max() <= GRAD_TOL and np.abs(beta).max() > 1.0:
                raise MonotoneLikelihood(
                    "information matrix underflowed while a coefficient "
                    f"diverged (|beta| reached {np.abs(beta).max():.1f}); the "
                    "partial likelihood is monotone (complete separation)"
                ) from None
            raise
        converged = bool(np.abs(grad).max() <= GRAD_TOL and np.abs(step).max() <= STEP_TOL)
        if converged or iterations == MAX_ITER:
            break
        scale = 1.0
        for _halving in range(10):
            cand = beta + scale * step
            ll_new, grad_new, info_new = cox_eval(layout, cand)
            if np.isfinite(ll_new) and ll_new >= ll - 1e-10 * (abs(ll) + 1.0):
                break
            scale *= 0.5
        beta, ll, grad, info = cand, ll_new, grad_new, info_new
        if np.abs(beta).max() > SEPARATION_BOUND:
            raise MonotoneLikelihood(
                "a coefficient exceeded +-50 during iteration; the partial "
                "likelihood is monotone (complete separation)"
            )

    return CoxFit(beta, _standard_errors(info), float(ll), iterations, converged)


def _newton_step(info, grad):
    # Cholesky doubles as the concavity check: the observed information
    # must be positive definite for the step to be an ascent direction.
    try:
        np.linalg.cholesky(info)
        return np.linalg.solve(info, grad)
    except np.linalg.LinAlgError:
        raise SingularHessian(
            "observed information is singular or not positive definite"
        ) from None


def _standard_errors(info):
    try:
        diag = np.diag(np.linalg.inv(info))
    except np.linalg.LinAlgError:
        diag = np.full(len(info), np.nan)
    return np.full(len(info), np.nan) if np.any(diag < 0) else np.sqrt(diag)


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
