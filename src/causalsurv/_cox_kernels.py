"""Partial-likelihood kernel for the proportional-hazards fitter.

One call evaluates the log partial likelihood, its gradient, and the
observed information at a coefficient vector; the Newton driver calls it
repeatedly for every fit.

Rows carry integer case weights: the fitter collapses its input to
distinct (time, event, covariates) rows with counts, and a row of count k
contributes exactly what k replicated rows would, the Efron tie correction
included (Efron 1977; Therneau & Grambsch 2000, section 7.1).

Inputs must be sorted by time ascending.  Tied event times use either the
Efron correction (failure risk mass removed in fractions l/m across the m
tied failures) or Breslow (no removal).  The linear predictor is shifted
by its maximum before exponentiation; the shift cancels exactly in all
three outputs because every failure contributes one numerator eta and one
log-denominator term.

No Python loop runs per event time.  Risk-set sums are reversed cumulative
sums read at the first row of each failure time, per-time failure sums
come from ``np.add.reduceat``, and the Efron terms l = 0..m-1 of every
failure time are laid out in one flat array over all failures.  The
second-moment part of the information needs only per-time scalar sums
over l, so no array is larger than rows x p x p or failures x p.

The Efron fraction is applied as ``(l * sf) / m`` rather than
``(l / m) * sf`` so that exactly symmetric arms cancel to a gradient of
exactly zero in floating point.
"""

import numpy as np

BACKEND = "numpy"


def cox_eval(x, t, d, beta, efron, counts=None):
    """Log partial likelihood, gradient and observed information at ``beta``.

    ``x`` is rows x p, ``t`` ascending times, ``d`` 0/1 events and
    ``counts`` the integer weight of each row (None: every row once).
    """
    c = np.ones(x.shape[0]) if counts is None else np.asarray(counts, dtype=np.float64)
    eta = x @ beta
    shift = eta.max()
    w = c * np.exp(eta - shift)
    wx = w[:, None] * x
    wxx = wx[:, :, None] * x[:, None, :]

    fail = np.flatnonzero(d == 1)
    tf = t[fail]
    first = np.flatnonzero(np.concatenate(([True], tf[1:] != tf[:-1])))
    risk = np.searchsorted(t, tf[first])  # first row of each failure time
    s0 = np.cumsum(w[::-1])[::-1][risk]
    s1 = np.cumsum(wx[::-1], axis=0)[::-1][risk]
    s2 = np.cumsum(wxx[::-1], axis=0)[::-1][risk]
    s0f = np.add.reduceat(w[fail], first)
    s1f = np.add.reduceat(wx[fail], first, axis=0)
    s2f = np.add.reduceat(wxx[fail], first, axis=0)
    m = np.add.reduceat(c[fail], first)

    # one entry per failure: its time's index g and Efron position l
    mi = m.astype(np.int64)
    g = np.repeat(np.arange(mi.size), mi)
    if efron:
        ls = (np.arange(g.size) - np.repeat(np.cumsum(mi) - mi, mi)).astype(np.float64)
    else:
        ls = np.zeros(g.size)
    mg = m[g]
    denom = s0[g] - (ls * s0f[g]) / mg
    e1 = (s1[g] - (ls[:, None] * s1f[g]) / mg[:, None]) / denom[:, None]
    inv = 1.0 / denom
    sum_inv = np.bincount(g, inv, minlength=mi.size)
    sum_frac = np.bincount(g, (ls / mg) * inv, minlength=mi.size)

    ll = c[fail] @ (eta[fail] - shift) - np.log(denom).sum()
    grad = c[fail] @ x[fail] - e1.sum(axis=0)
    p = x.shape[1]
    info = (sum_inv @ s2.reshape(-1, p * p) - sum_frac @ s2f.reshape(-1, p * p)).reshape(p, p)
    info -= e1.T @ e1
    return ll, grad, info
