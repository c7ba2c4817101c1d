import tracemalloc

import numpy as np
import pytest

from causalsurv import _cox_kernels as kernels
from causalsurv.estimators import cox_fit, km_fit
from oracles import cox_eval_loops, efron_tie_sums


def _random_tied_data(rng, n=80, p=2):
    x = np.ascontiguousarray(rng.normal(size=(n, p)))
    t = np.ascontiguousarray(np.sort(rng.integers(0, 15, size=n)).astype(np.float64))
    d = np.ascontiguousarray(rng.integers(0, 2, size=n).astype(np.uint8))
    d[rng.integers(0, n)] = 1
    return x, t, d


def _assert_close(got, want):
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=1e-10, atol=1e-10)


def _eval(x, t, d, beta, efron, counts=None):
    counts = np.ones(t.size) if counts is None else counts
    return kernels.cox_eval(kernels.cox_layout(x, t, d, counts, efron), beta)


def test_kernel_matches_scalar_loop_oracle():
    rng = np.random.default_rng(101)
    for _ in range(30):
        p = int(rng.integers(1, 5))
        x, t, d = _random_tied_data(rng, n=int(rng.integers(5, 80)), p=p)
        beta = rng.normal(scale=0.5, size=p)
        for efron in (True, False):
            _assert_close(
                _eval(x, t, d, beta, efron),
                cox_eval_loops(x, t, d, beta, efron),
            )


def _large_tie_data(rng, tie, p):
    """Count rows over three failure times, the first two of ``tie`` weighted failures.

    The last time has no censored rows and nothing after it, so every
    subject still at risk fails there (s0 == s0f).
    """
    t = np.repeat([1.0, 2.0, 3.0], 6)
    d = np.tile([1, 1, 1, 1, 0, 0], 3).astype(np.uint8)
    d[-2:] = 1
    failing = rng.multinomial(tie - 4, np.full(4, 0.25)) + 1
    counts = np.tile(np.concatenate((failing, [tie // 3, tie // 5])), 3)
    x = rng.normal(size=(t.size, p))
    return x, t, d, counts


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("tie", [100, 1000, 10_000])
def test_kernel_matches_scalar_loop_oracle_on_large_ties(tie, p):
    rng = np.random.default_rng(tie + p)
    x, t, d, counts = _large_tie_data(rng, tie, p)
    rep = np.repeat(np.arange(t.size), counts)
    beta = rng.normal(scale=0.3, size=p)
    for efron in (True, False):
        _assert_close(
            _eval(x, t, d, beta, efron, counts),
            cox_eval_loops(x[rep], t[rep], d[rep], beta, efron),
        )


def _wide_risk_set_data(rng, tie, ratio, p):
    """Count rows over three failure times of ``tie`` weighted failures each.

    Censored rows after the last failure time hold ``ratio - 1`` ties more,
    so every risk set is at least ``ratio`` times its tie and r = s0f/s0 is small.
    """
    t = np.repeat([1.0, 2.0, 3.0, 4.0], 4)
    d = np.repeat([1, 1, 1, 0], 4).astype(np.uint8)
    sizes = (tie, tie, tie, (ratio - 1) * tie)
    counts = np.concatenate([rng.multinomial(k - 4, np.full(4, 0.25)) + 1 for k in sizes])
    x = rng.normal(size=(t.size, p))
    return x, t, d, counts


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("tie, ratio", [(200, 50), (1000, 20)])
def test_kernel_matches_scalar_loop_oracle_when_ties_are_a_small_share(tie, ratio, p):
    # the regime of a pseudo-cohort's day ties: rho = r F below 0.1, where the
    # closed form takes the power series of its integrals
    rng = np.random.default_rng(tie + ratio + p)
    x, t, d, counts = _wide_risk_set_data(rng, tie, ratio, p)
    beta = rng.normal(scale=0.3, size=p)
    w = counts * np.exp(x @ beta)
    r = [w[(t == k) & (d == 1)].sum() / w[t >= k].sum() for k in (1.0, 2.0, 3.0)]
    assert max(r) < 0.1
    layout = kernels.cox_layout(x, t, d, counts, True)
    assert layout.closed.index.tolist() == [0, 1, 2]
    rep = np.repeat(np.arange(t.size), counts)
    _assert_close(kernels.cox_eval(layout, beta), cox_eval_loops(x[rep], t[rep], d[rep], beta, True))


_SHARES = [0.0, 1e-300, 1e-12, 1e-9, 1e-5, 1e-3, 0.05, 0.0999, 0.1, 0.1001, 0.3, 0.7, 0.95, 0.999,
           1 - 1e-12, 1.0]


@pytest.mark.parametrize("m", [kernels.BIG - 1, kernels.BIG, kernels.BIG + 1, kernels.BIG + 2, 1000, 100_000])
def test_tie_sums_match_exact_sums_of_their_terms(m):
    layout = kernels.cox_layout(np.zeros((1, 1)), np.ones(1), np.ones(1, dtype=np.uint8), [m], True)
    assert layout.closed.index.size == (m > kernels.BIG)
    for r in _SHARES:
        got = kernels.tie_sums(layout, np.array([r]))[:, 0]
        want = efron_tie_sums(m, r)
        # The flat pass of a tie of at most BIG takes S as the log of the
        # rounded 1 - r f, as the kernel always has: each term is then off by
        # up to an ulp of 1, which matters beside m log s0 no more than the
        # rounding of s0 does.
        slack = (m * 2.0**-52 if m <= kernels.BIG else 0.0, 0.0, 0.0)
        for g, w, s in zip(got, want, slack):
            assert abs(g - w) <= 1e-13 * abs(w) + s, (m, r, got, want)


def test_closed_sums_of_ties_on_both_sides_of_the_series_bound_match_each_side_alone():
    # below rho = r F = 0.1 a tie's integrals take their power series, and the
    # closed forms are computed only when some tie is at or above it: a tie's
    # sums must not depend on which other ties share the call
    m = np.array([150.0, 4000.0, 100_000.0, 150.0, 4000.0, 100_000.0, 97.0, 2500.0])
    r = np.array([1e-4, 0.05, 0.0999, 0.1001, 0.3, 0.95, 0.2, 0.0]) * m / (m - kernels.K)
    ties = kernels._closed_ties(m, np.arange(m.size))
    low = r * ties.head < 0.1
    assert low.tolist() == [True, True, True, False, False, False, False, True]
    both = kernels._closed_sums(ties, r)
    for side in (low, ~low):
        index = np.flatnonzero(side)
        alone = kernels._closed_sums(kernels._closed_ties(m, index), r[index])
        assert both[:, index].tobytes() == alone.tobytes()


def test_kernel_memory_does_not_grow_with_failures_times_p():
    # 200 rows at p = 8 whose counts hold 10^3 or 10^5 weighted failures: the
    # per-row moments are the same either way, and a failures x p array would
    # take 6.4 MB at 10^5
    rng = np.random.default_rng(13)
    t = np.repeat(np.arange(20.0), 10)
    d = np.ones(t.size, dtype=np.uint8)
    x = rng.normal(size=(t.size, 8))
    beta = np.full(8, 0.1)
    peaks = {}
    for failures in (10**3, 10**5):
        layout = kernels.cox_layout(x, t, d, np.full(t.size, failures // t.size), True)
        tracemalloc.start()
        kernels.cox_eval(layout, beta)
        peaks[failures] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert max(peaks.values()) <= 1.5 * min(peaks.values())
    assert peaks[10**5] < 10**5 * x.shape[1] * 8


def test_integer_counts_equal_replicated_rows():
    rng = np.random.default_rng(202)
    for _ in range(20):
        x, t, d = _random_tied_data(rng, n=40, p=3)
        counts = rng.integers(1, 5, size=t.size)
        beta = rng.normal(scale=0.5, size=3)
        rep = np.repeat(np.arange(t.size), counts)
        for efron in (True, False):
            _assert_close(
                _eval(x, t, d, beta, efron, counts),
                _eval(x[rep], t[rep], d[rep], beta, efron),
            )
        # the fitters see the same distinct rows either way: bit-identical
        x1 = np.round(x[:, :1])  # few distinct rows, so counts also merge
        for ties in ("efron", "breslow"):
            weighted = cox_fit(x1, t, d, counts=counts, ties=ties)
            expanded = cox_fit(x1[rep], t[rep], d[rep], ties=ties)
            for field in ("beta", "se", "loglik", "iterations", "converged"):
                assert np.array_equal(getattr(weighted, field), getattr(expanded, field))
        groups = (x[:, 1] > 0).astype(int)
        weighted = km_fit(t, d, groups, counts=counts)
        expanded = km_fit(t[rep], d[rep], groups[rep])
        assert weighted.groups.keys() == expanded.groups.keys()
        for label, group in weighted.groups.items():
            want = expanded.groups[label]
            for field in ("times", "at_risk", "events", "survival"):
                assert np.array_equal(getattr(group, field), getattr(want, field))


def test_numpy_path_handles_single_covariate():
    rng = np.random.default_rng(5)
    x, t, d = _random_tied_data(rng, n=25, p=1)
    ll, g, info = _eval(x, t, d, np.array([0.3]), True)
    assert np.isfinite(ll)
    assert g.shape == (1,)
    assert info.shape == (1, 1)
