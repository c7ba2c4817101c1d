import numpy as np

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


def test_kernel_matches_scalar_loop_oracle():
    rng = np.random.default_rng(101)
    for _ in range(30):
        p = int(rng.integers(1, 5))
        x, t, d = _random_tied_data(rng, n=int(rng.integers(5, 80)), p=p)
        beta = rng.normal(scale=0.5, size=p)
        for efron in (True, False):
            _assert_close(
                kernels.cox_eval(x, t, d, beta, efron),
                cox_eval_loops(x, t, d, beta, efron),
            )


def test_integer_counts_equal_replicated_rows():
    rng = np.random.default_rng(202)
    for _ in range(20):
        x, t, d = _random_tied_data(rng, n=40, p=3)
        counts = rng.integers(1, 5, size=t.size)
        beta = rng.normal(scale=0.5, size=3)
        rep = np.repeat(np.arange(t.size), counts)
        for efron in (True, False):
            _assert_close(
                kernels.cox_eval(x, t, d, beta, efron, counts),
                kernels.cox_eval(x[rep], t[rep], d[rep], beta, efron),
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
    ll, g, info = kernels.cox_eval(x, t, d, np.array([0.3]), True)
    assert np.isfinite(ll)
    assert g.shape == (1,)
    assert info.shape == (1, 1)
