"""Partial-likelihood kernel for the proportional-hazards fitter.

:func:`cox_eval` gives the log partial likelihood, its gradient, and the
observed information at a coefficient vector.  What does not depend on
the coefficients (each row's moments 1 | x | x x^T, where each failure
time's risk set and failures begin, the Efron fractions) is laid out once
per fit by :func:`cox_layout`.  A row of integer count k contributes
exactly what k replicated rows would, the Efron tie correction included
(Efron 1977; Therneau & Grambsch 2000, section 7.1).

Rows are sorted by time.  At a failure time with m weighted failures,
risk-set sums s0, s1, s2 and failure sums s0f, s1f, s2f, tie term
l = 0..m-1 has denominator d_l = s0 (1 - f_l r), with r = s0f / s0 and
f_l = l/m (Breslow: 0).  With a = s1/s0, delta = r a - s1f/s0 and
q_l = f_l / (1 - f_l r), term l has mean a + q_l delta, so over the terms

    sum e1      = m a + Q delta,  sum e2 = m s2/s0 + Q (r s2 - s2f)/s0,
    sum e1 e1^T = m a a^T + Q (a delta^T + delta a^T) + Q2 delta delta^T,

where Q and Q2 sum q_l and q_l^2.  So vector and matrix work is done once
per failure time, and the scalar terms are summed in one flat pass by
``np.add.reduceat``: one term per weighted failure under Efron, one per
failure time (standing for its m equal terms) under Breslow.  No array is
larger than rows x p x p or terms long.  The centred sums do not depend
on the scale of s0, and their cancellation stays inside delta.  The
linear predictor is shifted by its maximum before exponentiation; the
shift cancels exactly because every failure contributes one numerator
eta and one log-denominator term.
"""

from typing import NamedTuple

import numpy as np

BACKEND = "numpy"


class CoxLayout(NamedTuple):
    moments: np.ndarray  # (1 + p + p*p) x rows: 1 | x | x x^T of each row
    counts: np.ndarray  # weight of each row
    failures: np.ndarray  # weight of each row's failures: its count, or 0 if censored
    risk: np.ndarray  # first row of each failure time, where its risk set begins
    m: np.ndarray  # weighted failures at each failure time
    terms: np.ndarray  # tie terms of each failure time: m (Efron) or 1 (Breslow)
    term_first: np.ndarray  # position of each failure time's first term
    frac: np.ndarray  # each term's l/m


def cox_layout(x, t, d, counts, efron) -> CoxLayout:
    """Coefficient-free layout of rows ``x`` sorted by time ``t``, 0/1 events ``d``."""
    n, p = x.shape
    c = np.asarray(counts, dtype=np.float64)
    xt = np.ascontiguousarray(x.T)
    moments = np.concatenate((np.ones((1, n)), xt, (xt[:, None] * xt).reshape(p * p, n)))
    failures = np.where(d == 1, c, 0.0)
    risk = np.searchsorted(t, np.unique(t[failures > 0]))
    m = np.add.reduceat(failures, risk)
    terms = m.astype(np.int64) if efron else np.ones(m.size, dtype=np.int64)
    term_first = np.cumsum(terms) - terms
    frac = (np.arange(terms.sum()) - np.repeat(term_first, terms)) / np.repeat(m, terms)
    return CoxLayout(moments, c, failures, risk, m, terms, term_first, frac)


def cox_eval(layout, beta):
    """Log partial likelihood, gradient and observed information at ``beta``."""
    moments, counts, failures, risk, m, terms, term_first, frac = layout
    p = beta.size
    eta = beta @ moments[1 : p + 1]
    shift = eta.max()
    e = np.exp(eta - shift)
    # per failure time: 1 | x | x x^T summed over its risk set and its failures
    at_risk = np.add.reduceat(moments * (counts * e), risk, axis=1)
    at_risk = np.cumsum(at_risk[:, ::-1], axis=1)[:, ::-1]
    failed = np.add.reduceat(moments * (failures * e), risk, axis=1)
    s0 = at_risk[0]
    r = failed[0] / s0

    y = 1.0 - np.repeat(r, terms) * frac  # d_l / s0
    q = frac / y
    mult = m / terms  # failures each term stands for
    log_sum, qs, q2 = (np.add.reduceat(v, term_first) * mult for v in (np.log(y), q, q * q))

    mean = at_risk / s0  # 1 | a | s2/s0
    dev = mean * r - failed / s0  # 0 | delta | (r s2 - s2f)/s0
    total = mean @ m + dev @ qs  # 1 | e1 | e2 summed over all terms
    a, delta = mean[1 : p + 1], dev[1 : p + 1]
    ll = failures @ (eta - shift) - m @ np.log(s0) - log_sum.sum()
    grad = moments[1 : p + 1] @ failures - total[1 : p + 1]
    ad = (a * qs) @ delta.T
    info = total[p + 1 :].reshape(p, p) - (a * m) @ a.T - ad - ad.T - (delta * q2) @ delta.T
    return ll, grad, info
