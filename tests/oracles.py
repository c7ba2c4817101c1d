"""Independent oracle implementations used only by the tests.

These deliberately avoid the package's production code paths: d-separation
is checked by enumerating every simple undirected path and applying the
blocking rules; the Cox coefficient is checked by golden-section search
over a directly-evaluated log partial likelihood; and the Cox kernel is
checked against a scalar loop over subjects.
"""

import math

import numpy as np


# --- brute-force d-separation -------------------------------------------------

def _descendant_map(nodes, edges):
    children = {v: set() for v in nodes}
    for a, b in edges:
        children[a].add(b)
    desc = {}
    for v in nodes:
        seen = set()
        stack = [v]
        while stack:
            u = stack.pop()
            for c in children[u]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        desc[v] = seen
    return desc


def _all_simple_paths(nodes, edges, sources, targets):
    neighbors = {v: set() for v in nodes}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    paths = []

    def walk(path):
        tail = path[-1]
        if tail in targets and len(path) > 1:
            paths.append(list(path))
            return
        for nxt in sorted(neighbors[tail]):
            if nxt not in path:
                path.append(nxt)
                walk(path)
                path.pop()

    for s in sorted(sources):
        walk([s])
    return paths


def brute_force_d_separated(nodes, edges, a, b, given):
    """Enumerate every simple path; separated iff each one is blocked."""
    edge_set = set(edges)
    desc = _descendant_map(nodes, edges)
    given = set(given)
    for path in _all_simple_paths(nodes, edges, set(a), set(b)):
        blocked = False
        for i in range(1, len(path) - 1):
            prev_into = (path[i - 1], path[i]) in edge_set
            next_into = (path[i + 1], path[i]) in edge_set
            v = path[i]
            if prev_into and next_into:  # collider
                if v not in given and not (desc[v] & given):
                    blocked = True
                    break
            else:  # chain or fork
                if v in given:
                    blocked = True
                    break
        if not blocked:
            return False
    return True


def random_dag(rng, max_nodes=8, edge_prob=0.35, latent_prob=0.0):
    """Random DAG over a shuffled topological order."""
    n = int(rng.integers(3, max_nodes + 1))
    names = [f"v{i}" for i in range(n)]
    order = list(rng.permutation(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((names[order[i]], names[order[j]]))
    nodes = [(name, bool(rng.random() >= latent_prob)) for name in names]
    return nodes, edges


# --- direct Cox partial likelihood (one covariate, no ties) --------------------

def direct_loglik(x, t, beta):
    """Log partial likelihood for all-event, tie-free data, evaluated directly."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    ll = 0.0
    for j in range(len(t)):
        at_risk = t >= t[j]
        ll += beta * x[j] - math.log(np.exp(beta * x[at_risk]).sum())
    return ll


def golden_section_max(f, lo=-20.0, hi=20.0, iterations=80):
    """Maximize a unimodal scalar function by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2.0


def central_difference(f, beta, h=1e-5):
    return (f(beta + h) - f(beta - h)) / (2.0 * h)


# --- scalar-loop Cox kernel (unit weights, Efron or Breslow) -------------------

def cox_eval_loops(x, t, d, beta, efron):
    """(loglik, gradient, information) by one backward pass over subjects.

    Subjects must be sorted by time ascending.  Each tie time adds its
    subjects to the running risk-set sums, then its m failures contribute
    the Efron terms l = 0..m-1 (Breslow: l = 0 throughout) one at a time.
    """
    n, p = x.shape
    eta = np.empty(n)
    for j in range(n):
        s = 0.0
        for k in range(p):
            s += x[j, k] * beta[k]
        eta[j] = s
    shift = eta[0]
    for j in range(1, n):
        if eta[j] > shift:
            shift = eta[j]
    w = np.empty(n)
    for j in range(n):
        w[j] = math.exp(eta[j] - shift)

    s0 = 0.0
    s1 = np.zeros(p)
    s2 = np.zeros((p, p))
    s1f = np.empty(p)
    s2f = np.empty((p, p))
    e1 = np.empty(p)
    ll = 0.0
    grad = np.zeros(p)
    info = np.zeros((p, p))

    i = n - 1
    while i >= 0:
        j = i
        while j >= 0 and t[j] == t[i]:
            j -= 1
        nfail = 0
        s0f = 0.0
        for a in range(p):
            s1f[a] = 0.0
            for b in range(p):
                s2f[a, b] = 0.0
        for r in range(j + 1, i + 1):
            wr = w[r]
            s0 += wr
            for a in range(p):
                va = wr * x[r, a]
                s1[a] += va
                for b in range(p):
                    s2[a, b] += va * x[r, b]
            if d[r] == 1:
                nfail += 1
                s0f += wr
                ll += eta[r] - shift
                for a in range(p):
                    grad[a] += x[r, a]
                    vfa = wr * x[r, a]
                    s1f[a] += vfa
                    for b in range(p):
                        s2f[a, b] += vfa * x[r, b]
        for l in range(nfail):
            frac = l if efron else 0
            denom = s0 - (frac * s0f) / nfail
            ll -= math.log(denom)
            for a in range(p):
                e1[a] = (s1[a] - (frac * s1f[a]) / nfail) / denom
                grad[a] -= e1[a]
            for a in range(p):
                for b in range(p):
                    e2ab = (s2[a, b] - (frac * s2f[a, b]) / nfail) / denom
                    info[a, b] += e2ab - e1[a] * e1[b]
        i = j
    return ll, grad, info


# --- small random survival data -------------------------------------------------

def random_tie_free_dataset(rng, max_n=12):
    """1-covariate, all-event, tie-free dataset with an interior optimum.

    Redraws when the golden-section maximizer sits near the search boundary
    (near-separation), where the newton-vs-search comparison is meaningless.
    """
    while True:
        n = int(rng.integers(4, max_n + 1))
        x = rng.normal(size=n)
        t = rng.permutation(np.arange(1, n + 1)).astype(float)
        beta_gs = golden_section_max(lambda b: direct_loglik(x, t, b))
        if abs(beta_gs) < 10.0:
            return x, t, beta_gs
