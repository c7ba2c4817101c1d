"""Independent oracle implementations used only by the tests.

These deliberately avoid the package's production code paths: d-separation
is checked by enumerating every simple undirected path and applying the
blocking rules; ``satisfies_backdoor`` is checked against the backdoor
criterion applied directly (observed members, none among the treatment's
descendants as ``_descendant_map`` finds them, and the path enumeration
once the treatment's out-edges are removed); the minimal backdoor sets
are checked by trying every subset of the candidates with
``satisfies_backdoor``, which that oracle anchors; the Cox coefficient is
checked by golden-section search over a directly-evaluated log partial
likelihood; the Cox kernel is checked against a scalar loop over
subjects; the backdoor-adjusted curve is checked against a sum over whole
daily outcome histories; the first empty (arm, stratum) cell is found by
walking the level product over the subjects; and the pseudo-cohort's count table can be
expanded to one tuple per subject.  ``gradient_at`` is a helper, not an
oracle: it reads the production kernel's gradient for the score checks.
Test cohorts are written as CSV text for ``load_cohort`` and decoded back
to one tuple per subject by ``subjects``.
"""

import functools
import io
import math
from collections import Counter, namedtuple
from itertools import combinations, product

import numpy as np

from causalsurv._cox_kernels import cox_eval, cox_layout
from causalsurv.cohort import load_cohort
from causalsurv.errors import InvalidAdjustmentSet, PositivityViolation
from causalsurv.estimators import _prepare
from causalsurv.graph import descendants, satisfies_backdoor


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


def brute_force_satisfies_backdoor(nodes, edges, z, treatment, outcome):
    """The backdoor criterion from its definition, by path enumeration.

    ``nodes`` are (name, observed) pairs.  Valid iff every member of ``z``
    is observed, none descends from the treatment, and ``z`` blocks every
    path from treatment to outcome once the treatment's out-edges are gone.
    """
    names = [n for n, _ in nodes]
    unobserved = {n for n, obs in nodes if not obs}
    if set(z) & (unobserved | _descendant_map(names, edges)[treatment]):
        return False
    kept = [(a, b) for a, b in edges if a != treatment]
    return brute_force_d_separated(names, kept, {treatment}, {outcome}, z)


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


def brute_force_minimal_backdoor_sets(dag, treatment, outcome):
    """Minimal backdoor sets by trying every subset of the candidates.

    Candidates are the observed non-descendants of the treatment; subsets
    go by size then lexicographically, and supersets of a set already
    found are skipped, so the output order is the production order.
    """
    banned = descendants(dag, treatment) | {treatment, outcome}
    candidates = sorted(v for v in dag.observed_nodes() if v not in banned)
    minimal = []
    for size in range(len(candidates) + 1):
        for combo in combinations(candidates, size):
            s = frozenset(combo)
            if any(m.variables < s for m in minimal):
                continue
            checked = satisfies_backdoor(dag, s, treatment, outcome)
            if checked.valid:
                minimal.append(checked)
    return minimal


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


def gradient_at(covariate_matrix, times, events, beta, *, ties="efron"):
    """Gradient of the log partial likelihood at a fixed coefficient vector."""
    x, t, d, counts = _prepare(covariate_matrix, times, events)
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    _, grad, _ = cox_eval(cox_layout(x, t, d, counts, ties == "efron"), beta)
    return grad


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


# --- cohorts as CSV text and as per-subject tuples -----------------------------

def cohort_from_rows(rows, covariates=("z",)):
    """``load_cohort`` on CSV text of (treatment, time, event, *covariate cells) rows."""
    names = ["treatment", "time", "event", *covariates]
    text = "".join(",".join(map(str, row)) + "\n" for row in [names, *rows])
    column_map = {**{c: c for c in names[:3]}, "covariates": list(covariates)}
    return load_cohort(io.StringIO(text), column_map)


Subject = namedtuple("Subject", "id treatment survival_time event covariates")


@functools.lru_cache(maxsize=1)  # brute_force_do asks once per (arm, day)
def subjects(cohort):
    """One ``Subject`` per row, decoded from the cohort's columns and level codes.

    A subject's id is its row position.
    """
    names = sorted(cohort.covariate_levels)
    labels = [[cohort.covariate_levels[c][k] for k in cohort.codes[c].tolist()] for c in names]
    columns = [a.tolist() for a in (cohort.treatment, cohort.time, cohort.event)]
    return tuple(
        Subject(i, x, t, e, dict(zip(names, values)))
        for i, (x, t, e, *values) in enumerate(zip(*columns, *labels))
    )


# --- pseudo-cohort ------------------------------------------------------------

def expand(pseudo):
    """Per-subject (arm, day, event) tuples of a pseudo-cohort's count table."""
    arm, _, day, event, count = pseudo.cells()
    return [
        (a, d, e)
        for a, d, e, k in zip(arm.tolist(), day.tolist(), event.tolist(), count.tolist())
        for _ in range(k)
    ]


# --- positivity -----------------------------------------------------------------

def first_empty_cell(cohort, covariates):
    """The first (arm, level tuple) with no subject, or None.

    Walks the level combinations of the sorted ``covariates`` in
    ``itertools.product`` order, arm 0 before arm 1 within each, over the
    per-subject tuples of ``subjects(cohort)``.
    """
    covs = sorted(covariates)
    people = subjects(cohort)
    occupied = {(s.treatment, tuple(s.covariates[c] for c in covs)) for s in people}
    levels = [sorted({s.covariates[c] for s in people}) for c in covs]
    for combo in product(*levels):
        for arm in (0, 1):
            if (arm, combo) not in occupied:
                return arm, combo
    return None


# --- long-form interventional survival ----------------------------------------

def brute_force_do(cohort, z, day, arm):
    """Long-form interventional survival at one day.

    Sums the empirical joint probability of every observed daily outcome
    history (Y_0, ..., Y_day) whose final entry is alive, stratum by
    stratum, weighted by the empirical stratum frequency.  Strata and death
    days come from the per-subject tuples of ``subjects(cohort)`` (a
    subject dies on its survival time when its event is 1), not from the
    daily-trials table.  Small cohorts only; cost grows with day * n.
    """
    if not z.valid:
        raise InvalidAdjustmentSet("adjustment set is not valid")
    if (day + 1) * cohort.n > 5_000_000:
        raise ValueError("oracle is meant for small cohorts and short horizons")
    people = subjects(cohort)
    covs = sorted(z.variables)
    keys = [tuple(s.covariates[c] for c in covs) for s in people]
    levels = [sorted({s.covariates[c] for s in people}) for c in covs]
    death_day = [s.survival_time if s.event == 1 else -1 for s in people]
    n = len(people)

    total = 0.0
    for combo in product(*levels):
        members = [j for j in range(n) if keys[j] == combo]
        weight = len(members) / n
        idx = [j for j in members if people[j].treatment == arm]
        if not idx:
            raise PositivityViolation(arm, combo)
        histories = Counter()
        for j in idx:
            dd = death_day[j]
            history = tuple(
                0 if (dd >= 0 and dd <= i) else 1 for i in range(day + 1)
            )
            histories[history] += 1
        stratum_mass = 0.0
        for history, count in sorted(histories.items()):
            if history[day] == 1:
                stratum_mass += count / len(idx)
        total += stratum_mass * weight
    return min(total, 1.0)
