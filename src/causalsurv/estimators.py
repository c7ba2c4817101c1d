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

from dataclasses import dataclass

import numpy as np

from ._cox_kernels import cox_eval, cox_layout
from .errors import (
    ConstantCovariate,
    EmptyGroup,
    LengthMismatch,
    MonotoneLikelihood,
    NoEvents,
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


@dataclass(frozen=True)
class KmGroup:
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


@dataclass(frozen=True)
class KmCurve:
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


def km_fit(times, events, groups=None, *, counts=None) -> KmCurve:
    """Kaplan-Meier product-limit estimate per group.

    Survival steps down only at event times; censored subjects leave the
    risk set just after their censoring time.  ``counts`` gives how many
    subjects each row stands for.
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
    if np.any(times < 0):
        raise ValueError("times must be non-negative")
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


@dataclass(frozen=True)
class CoxFit:
    beta: np.ndarray
    se: np.ndarray
    hr: np.ndarray
    ci95: tuple[np.ndarray, np.ndarray]
    loglik: float
    iterations: int
    converged: bool
    ties_method: str


def _prepare(covariate_matrix, times, events, counts=None):
    """Distinct (time, event, covariates) rows sorted by time, with counts."""
    x = np.asarray(covariate_matrix, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    t = np.asarray(times, dtype=np.float64)
    d = np.asarray(events, dtype=np.uint8)
    if not (x.shape[0] == t.shape[0] == d.shape[0]):
        raise LengthMismatch("covariates, times, and events differ in length")
    weights = _weights(counts, t.size)
    if d.sum() == 0:
        raise NoEvents("no events in the data; the partial likelihood is empty")
    spans = x.max(axis=0) - x.min(axis=0)
    flat = np.flatnonzero(spans == 0)
    if flat.size:
        raise ConstantCovariate(f"covariate column {int(flat[0])} is constant")
    # Rows compare as fixed-width byte keys, which sorts several times faster
    # than np.unique(axis=0); the kernel needs time order only between times.
    rows = np.column_stack((t, d, x))
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    counts = np.bincount(inverse, weights)
    order = np.argsort(rows[first, 0], kind="stable")
    rows, counts = rows[first[order]], counts[order]
    return np.ascontiguousarray(rows[:, 2:]), rows[:, 0], rows[:, 1], counts


def cox_fit(covariate_matrix, times, events, *, counts=None, ties="efron") -> CoxFit:
    """Maximize the log partial likelihood by Newton-Raphson.

    A row of ``counts`` k fits exactly as k copies of it would.
    Step-halving (up to 10 halvings per iteration) guards against
    log-likelihood decreases.  Standard errors come from the inverse of the
    observed information at the optimum.  Exhausting ``MAX_ITER`` returns a
    partial result with ``converged=False``; a coefficient running past
    +-50 raises :class:`MonotoneLikelihood` instead of being returned.
    """
    if ties not in ("efron", "breslow"):
        raise ValueError(f"ties must be 'efron' or 'breslow', got {ties!r}")
    x, t, d, counts = _prepare(covariate_matrix, times, events, counts)
    p = x.shape[1]
    layout = cox_layout(x, t, d, counts, ties == "efron")

    beta = np.zeros(p)
    ll, grad, info = cox_eval(layout, beta)
    converged = False
    iterations = 0
    for _ in range(MAX_ITER):
        try:
            step = _newton_step(info, grad)
        except SingularHessian:
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
        if np.abs(grad).max() <= GRAD_TOL and np.abs(step).max() <= STEP_TOL:
            converged = True
            break
        iterations += 1
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
    else:
        step = _newton_step(info, grad, allow_singular=True)
        if step is not None and np.abs(grad).max() <= GRAD_TOL and np.abs(step).max() <= STEP_TOL:
            converged = True

    se = _standard_errors(info, p)
    with np.errstate(over="ignore"):  # a huge se gives an infinite bound, not a warning
        hr = np.exp(beta)
        ci = (np.exp(beta - Z_95 * se), np.exp(beta + Z_95 * se))
    return CoxFit(beta, se, hr, ci, float(ll), iterations, converged, ties)


def _newton_step(info, grad, allow_singular=False):
    # Cholesky doubles as the concavity check: the observed information
    # must be positive definite for the step to be an ascent direction.
    try:
        np.linalg.cholesky(info)
        return np.linalg.solve(info, grad)
    except np.linalg.LinAlgError:
        if allow_singular:
            return None
        raise SingularHessian(
            "observed information is singular or not positive definite"
        ) from None


def _standard_errors(info, p):
    try:
        cov = np.linalg.inv(info)
        diag = np.diag(cov)
        if np.any(diag < 0):
            return np.full(p, np.nan)
        return np.sqrt(diag)
    except np.linalg.LinAlgError:
        return np.full(p, np.nan)


def hr_report(fit: CoxFit) -> tuple[float, float, float]:
    """Treatment (first column) hazard ratio and its 95% Wald interval."""
    if not fit.converged:
        raise NotConverged("fit did not converge; refusing to report a hazard ratio")
    return float(fit.hr[0]), float(fit.ci95[0][0]), float(fit.ci95[1][0])
