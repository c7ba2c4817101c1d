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
per failure time, and only three scalar sums per tie remain: S (of
log d_l/s0), Q and Q2 (:func:`tie_sums`).  Breslow ties have no terms:
with f_l = 0 every term is log 1 = 0 and 0/1 = 0, so their sums are zero
and only Efron ties are laid out.  An Efron tie of at most ``BIG`` weighted
failures sums its m terms in one flat pass by ``np.add.reduceat``; those
are all the ties of the paper's n = 200 design, whose outputs stay
byte-for-byte what that pass gives.  A larger tie, such as a day-grid tie
of a pseudo-cohort, takes O(1) work: its last ``K`` terms, where
1 - f r can fall to 1/m, are summed exactly, and its first m - K by
Euler-Maclaurin with ``P`` correction terms over the closed-form
integrals of the three summands (power series below rho = r F = 0.1, so
that nothing divides by r).  Beyond the tail each correction is about
(2 pi K)^2 times smaller than the one before, so the sums agree with the
exact ones to about 1e-14 relative.  No array is larger than
2 x rows x (1 + p + p*p), the rows' moments weighted for the risk sets
and for the failures, or the flat terms long.  The centred sums do not
depend on the scale of s0, and their cancellation stays inside delta.  The linear
predictor is shifted by its maximum before exponentiation; the shift
cancels exactly because every failure contributes one numerator eta and
one log-denominator term.
"""

from math import factorial
from typing import NamedTuple

import numpy as np

BACKEND = "numpy"

K = 24  # tail terms of a large tie summed exactly
P = 4  # Euler-Maclaurin correction terms
BIG = 4 * K  # Efron ties above this many weighted failures take the closed form

_RHO_SERIES = 0.1  # below this rho = r F the integrals take their power series
# The integrals over [0, F] of log(1 - r f), f/(1 - r f) and (f/(1 - r f))^2 are
# -F, F^2 and F^3 times these power series in rho; 19 powers leave out < 1e-18 below 0.1.
_J = np.arange(19.0)
_SERIES = np.column_stack((
    np.concatenate(([0.0], 1 / ((_J[1:] + 1) * _J[1:]))), 1 / (_J + 2), (_J + 1) / (_J + 3)
))
# Above it, r, r^2 and r^3 times the integrals, from log(1 - rho), rho log(1 - rho), rho, rho u:
# -(1 - rho) log(1 - rho) - rho, -log(1 - rho) - rho and rho u + 2 log(1 - rho) + rho.
_FORMS = np.array([[-1.0, 1.0, -1.0, 0.0], [-1.0, 0.0, -1.0, 0.0], [2.0, 0.0, 1.0, 1.0]])
# Correction j weighs g^(n), n = 2j - 1, by B_2j/(2j)! h^n.  With w = 1/(1 - r f) and
# x = h r w, each weighted derivative is a polynomial in y = x^2, whose coefficients of
# y^0..y^3 are the columns of _EM: -S/x, Q/(h w^2), Q2's (n-1) part/(h^2 w^3 x),
# and its (n+1) part/(h f w^3).
_N = np.arange(1, 2 * P, 2)
_B = np.array([1 / 12, -1 / 720, 1 / 30240, -1 / 1209600])  # B_2j/(2j)!
_FACT = np.array([factorial(n) for n in _N], dtype=np.float64)
_EM = np.column_stack((
    _B * _FACT / _N, _B * _FACT, np.append(_B[1:] * _FACT[1:] * (_N[1:] - 1), 0.0), _B * _FACT * (_N + 1)
))


class ClosedTies(NamedTuple):
    """Per large tie, what its closed-form sums need that depends only on m."""

    index: np.ndarray  # which failure times
    m: np.ndarray  # their weighted failures
    h: np.ndarray  # 1/m
    head: np.ndarray  # F = (m - K)/m: the share of the terms taken by Euler-Maclaurin
    series: np.ndarray  # 3 x ties: m [-F, F^2, F^3], the factors of the integrals' series
    tail: np.ndarray  # ties x K: l/m of the last K terms, summed exactly


def _closed_ties(m, index) -> ClosedTies:
    mi = m[index]
    head = (mi - K) / mi
    series = mi * np.array((-head, head**2, head**3))
    tail = (mi[:, None] - np.arange(K, 0, -1)) / mi[:, None]
    return ClosedTies(index, mi, 1.0 / mi, head, series, tail)


NO_CLOSED_TIES = _closed_ties(np.zeros(0), np.zeros(0, dtype=np.int64))  # the layouts that have none share it


class CoxLayout(NamedTuple):
    moments: np.ndarray  # (1 + p + p*p) x rows: 1 | x | x x^T of each row
    weights: np.ndarray  # 2 x rows: each row's count | its failures' weight, its count or 0 if censored
    risk: np.ndarray  # first row of each failure time, where its risk set begins
    m: np.ndarray  # weighted failures at each failure time
    flat: np.ndarray  # Efron ties of at most BIG failures, whose terms are summed one by one
    term_of: np.ndarray  # the failure time of each flat term
    term_first: np.ndarray  # position of each flat failure time's first term
    frac: np.ndarray  # each flat term's l/m
    closed: ClosedTies  # Efron ties of more than BIG failures


def cox_layout(x, t, d, counts, efron) -> CoxLayout:
    """Coefficient-free layout of rows ``x`` sorted by time ``t``, 0/1 events ``d``."""
    n, p = x.shape
    c = np.asarray(counts, dtype=np.float64)
    xt = np.ascontiguousarray(x.T)
    moments = np.concatenate((np.ones((1, n)), xt, (xt[:, None] * xt).reshape(p * p, n)))
    weights = np.array((c, np.where(d == 1, c, 0.0)))
    failures = weights[1]
    starts = np.concatenate(([True], t[1:] != t[:-1])).nonzero()[0]  # each time's first row
    risk = starts[np.add.reduceat(failures, starts) > 0]
    m = np.add.reduceat(failures, risk)
    flat = ((m <= BIG) & efron).nonzero()[0]
    mf = m[flat]
    terms = mf.astype(np.int64)
    term_first = terms.cumsum() - terms
    frac = (np.arange(terms.sum()) - term_first.repeat(terms)) / mf.repeat(terms)
    term_of = flat.repeat(terms)
    big = (m > BIG) & efron
    closed = _closed_ties(m, big.nonzero()[0]) if big.any() else NO_CLOSED_TIES
    return CoxLayout(moments, weights, risk, m, flat, term_of, term_first, frac, closed)


def tie_sums(layout, r):
    """S, Q and Q2 of every failure time's tie, at failure shares ``r = s0f/s0``."""
    flat = layout.flat
    if flat.size:
        y = 1.0 - r[layout.term_of] * layout.frac
        summands = np.empty((3, y.size))
        np.log(y, out=summands[0])
        q = np.divide(layout.frac, y, out=summands[1])
        np.multiply(q, q, out=summands[2])
        sums = np.add.reduceat(summands, layout.term_first, axis=1)
        if flat.size == r.size:  # every tie is a flat Efron tie
            return sums
    out = np.zeros((3, r.size))  # Breslow ties keep their zeros
    if flat.size:
        out[:, flat] = sums
    if layout.closed.index.size:
        out[:, layout.closed.index] = _closed_sums(layout.closed, r[layout.closed.index])
    return out


def _closed_sums(ties, r):
    """S, Q and Q2 of large ties: Euler-Maclaurin over the head, the tail summed exactly.

    With g one of log(1 - r f), f/(1 - r f) and (f/(1 - r f))^2, the first
    m - K terms sum to m int_0^F g + (g(0) - g(F))/2
    + sum_j B_2j/(2j)! h^(2j-1) (g^(2j-1)(F) - g^(2j-1)(0)).  With
    w = 1/(1 - r f) the derivatives are g_S^(n) = -(n-1)! (r w)^n,
    g_Q^(n) = n! w^2 (r w)^(n-1) and
    g_Q2^(n) = n! w^3 ((n-1) (r w)^(n-2) + (n+1) f w (r w)^(n-1)),
    so nothing divides by r.
    """
    m, h, head, rho = ties.m, ties.h, ties.head, r * ties.head
    u = 1.0 / (1.0 - rho)  # 1 - rho >= K/m
    log1m = np.log1p(-rho)
    fu = head * u
    # m times the integrals over [0, F]: series, or closed forms where rho is large enough
    # that they do not cancel
    integral = ties.series * ((rho[:, None] ** _J) @ _SERIES).T
    closed = rho >= _RHO_SERIES
    if closed.any():
        rc = np.where(closed, r, 1.0)
        scale = m / rc
        forms = _FORMS @ np.array((log1m, rho * log1m, rho, rho * u))
        integral = np.where(closed, forms * np.array((scale, scale / rc, scale / rc**2)), integral)
    # the weighted derivatives at f = F and at f = 0
    x = np.array((h * r * u, h * r))
    y = x * x
    powers = np.array((np.ones_like(y), y, y * y, y * y * y))
    at_f, at_0 = np.dot(_EM.T, powers.reshape(4, -1)).reshape(4, 2, -1).swapaxes(0, 1)
    u2 = u * u
    ends = np.array((
        x[1] * at_0[0] - x[0] * at_f[0],
        h * (u2 * at_f[1] - at_0[1]),
        h * (h * (u2 * u * x[0] * at_f[2] - x[1] * at_0[2]) + fu * u2 * at_f[3]),
    ))
    # the tail, where 1 - r f can fall to 1/m, summed along its rows
    z = r[:, None] * ties.tail
    qt = ties.tail / (1.0 - z)
    ones = np.ones(K)
    exact = np.array((np.log1p(-z) @ ones, qt @ ones, (qt * qt) @ ones))
    return integral + ends + exact - 0.5 * np.array((log1m, fu, fu * fu))


def cox_eval(layout, beta):
    """Log partial likelihood, gradient and observed information at ``beta``."""
    moments, weights, risk, m = layout[:4]
    p = beta.size
    eta = beta @ moments[1 : p + 1]
    eta -= eta.max()  # the shift cancels; see the module docstring
    e = np.exp(eta)
    # per failure time: 1 | x | x x^T summed over its rows, then over its failures; a
    # risk set is its time's rows and every later time's, so those sums run from the last
    sums = np.add.reduceat(moments * (weights * e)[:, None], risk, axis=2)
    sums[0, :, ::-1].cumsum(axis=1, out=sums[0, :, ::-1])
    s0 = sums[0, 0]
    mean, failed = sums / s0  # 1 | a | s2/s0, and the failures' sums over s0
    r = failed[0]
    log_sum, qs, q2 = tie_sums(layout, r)

    dev = mean * r - failed  # 0 | delta | (r s2 - s2f)/s0
    total = mean @ m + dev @ qs  # 1 | e1 | e2 summed over all terms
    a, delta = mean[1 : p + 1], dev[1 : p + 1]
    failures = weights[1]
    ll = float(failures @ eta - m @ np.log(s0) - log_sum.sum())
    grad = moments[1 : p + 1] @ failures - total[1 : p + 1]
    ad = (a * qs) @ delta.T
    info = total[p + 1 :].reshape(p, p) - (a * m) @ a.T - ad - ad.T - (delta * q2) @ delta.T
    return ll, grad, info
