import tracemalloc

import numpy as np
import pytest

from causalsurv import _cox_kernels as kernels
from causalsurv.estimators import cox_fit, km_fit
from oracles import cox_eval_loops


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


def test_kernel_memory_does_not_grow_with_failures_times_p():
    # 10^5 weighted failures on 200 rows: a failures x p array would be
    # 8 times larger at p = 8 than at p = 1, while the per-row arrays stay small
    rng = np.random.default_rng(13)
    t = np.repeat(np.arange(20.0), 10)
    d = np.ones(t.size, dtype=np.uint8)
    x = rng.normal(size=(t.size, 8))
    peaks = {}
    for p in (1, 8):
        layout = kernels.cox_layout(x[:, :p], t, d, np.full(t.size, 500), True)
        beta = np.full(p, 0.1)
        tracemalloc.start()
        kernels.cox_eval(layout, beta)
        peaks[p] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[8] <= 1.5 * peaks[1]


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
