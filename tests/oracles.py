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
subjects, and its Efron tie sums against exact sums of their terms; the
Kaplan-Meier estimate is checked against one pass per group; the
backdoor-adjusted curve is checked against a sum over whole
daily outcome histories; the first empty (arm, stratum) cell is found by
walking the level product over the subjects; the pseudo-cohort is
rebuilt by exact half-up rounding of the adjusted deaths, and its count
table can be expanded to one tuple per subject; the follow-up filters are
checked against their formulas on a plain time column.  ``gradient_at``
is a helper, not an oracle: it reads the production kernel's gradient
for the score checks.
Test cohorts are written as CSV text for ``load_cohort`` and decoded back
to one tuple per subject by ``subjects``; ``csv_reader_outcome`` reads an
RFC 4180 file with the standard library's ``csv.reader`` and validates
its rows one by one.
"""

import csv
import functools
import io
import math
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from causalsurv._cox_kernels import cox_eval, cox_layout
from causalsurv.cohort import load_cohort
from causalsurv.errors import (
    CohortError,
    EmptyArm,
    InvalidAdjustmentSet,
    MissingValue,
    NegativeTime,
    NonBinaryEvent,
    NonBinaryTreatment,
    NonIntegerTime,
    PositivityViolation,
    RaggedRow,
)
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


# --- Efron tie sums by exact summation -----------------------------------------

def efron_tie_sums(m, r):
    """S, Q and Q2 of a tie of ``m`` failures at failure share ``r``, each by ``math.fsum``.

    Term l = 0..m-1 has f = l/m: S sums log1p(-r f), Q sums q = f/(1 - r f)
    and Q2 sums q^2, each term rounded once and the sums exact.
    """
    f = np.arange(m) / m
    q = f / (1.0 - r * f)
    return math.fsum(np.log1p(-r * f)), math.fsum(q), math.fsum(q * q)


# --- Kaplan-Meier one group at a time --------------------------------------------

def km_per_group(times, events, groups, counts=None):
    """Kaplan-Meier estimates as dict label -> (times, at_risk, events, survival).

    Each group is masked out and its own times made distinct by their own
    ``np.unique``; at-risk counts are the reverse cumulative sum of the
    per-time weights, events the float weights of event rows, and survival
    the cumulative product of 1 - events/at risk over the times with an
    event.  Labels become the Python values ``.item()`` gives.
    """
    times, events, groups = np.asarray(times), np.asarray(events), np.asarray(groups)
    weights = np.ones(times.size) if counts is None else np.asarray(counts, dtype=np.float64)
    out = {}
    for label in np.unique(groups):
        mask = groups == label
        t, d, c = times[mask], events[mask], weights[mask]
        days, day_of = np.unique(t, return_inverse=True)
        at_risk = np.cumsum(np.bincount(day_of, c)[::-1])[::-1]
        # float64 also for a group without event rows, whose bincount is int64
        failed = np.bincount(day_of[d == 1], c[d == 1], minlength=days.size).astype(np.float64)
        keep = failed > 0
        survival = np.cumprod(1.0 - failed[keep] / at_risk[keep])
        out[label.item()] = (days[keep], at_risk[keep], failed[keep], survival)
    return out


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


def csv_reader_outcome(text, column_map):
    """What ``load_cohort`` gives for RFC 4180 ``text``, read by ``csv.reader``.

    A leading byte-order mark is dropped, and a CRLF, then a lone CR,
    becomes an LF first, also inside quotes.  Records are numbered from
    2, blank ones included, and the first that holds a NUL (a
    ``CohortError``) or whose field count differs from the header's ends
    the read.  Each row is checked in turn: an empty mapped cell, then
    treatment, time and event; times are read by ``float``.  Returns (treatment, time, event, covariate levels,
    covariate codes, t_max) as lists and dicts, or (error type, row
    number, or None for an empty arm).
    """
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    header, *records = csv.reader(io.StringIO(text))
    roles = [column_map[role] for role in ("treatment", "time", "event")]
    covariates = list(column_map.get("covariates", []))
    names = roles + covariates + ([column_map["id"]] if column_map.get("id") else [])
    at = [header.index(name) for name in names]
    rows = []
    for number, record in enumerate(records, 2):
        if not record:
            continue
        if any("\0" in cell for cell in record):
            return CohortError, number
        if len(record) != len(header):
            return RaggedRow, number
        cells = [record[j].strip() for j in at]
        x, t, s = cells[:3]
        try:
            day = float(t)
        except ValueError:
            day = 0.5  # not a number fails as a fraction does
        for failed, exc in (
            ("" in cells, MissingValue),
            (x not in ("0", "1"), NonBinaryTreatment),
            (not day.is_integer(), NonIntegerTime),
            (day < 0, NegativeTime),
            (s not in ("0", "1"), NonBinaryEvent),
        ):
            if failed:
                return exc, number
        rows.append((int(x), int(day), int(s), *cells[3 : 3 + len(covariates)]))
    if len({row[0] for row in rows}) < 2:
        return EmptyArm, None
    columns = [list(column) for column in zip(*rows)]
    levels = {name: tuple(sorted(set(column))) for name, column in zip(covariates, columns[3:])}
    codes = {
        name: [levels[name].index(v) for v in column] for name, column in zip(covariates, columns[3:])
    }
    return (*columns[:3], levels, codes, max(columns[1]))


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


# --- follow-up filters on a plain time column ----------------------------------

def filtered_followup(time, event, t_max, strict):
    """Time, event and horizon after the follow-up filters, on a plain time column.

    ``truncate_followup`` at ``t_max``: a horizon below the last day clips
    the int64 time column with ``np.minimum`` and clears the events past
    it with ``np.where``.  Then, if ``strict``, ``drop_early_censored``
    keeps events and subjects followed to the horizon.  Also returns the
    mask of subjects kept.
    """
    horizon = int(time.max())
    if t_max < horizon:
        time, event, horizon = np.minimum(time, t_max), np.where(time > t_max, 0, event), t_max
    keep = (event == 1) | (time >= horizon) if strict else np.ones(len(time), dtype=bool)
    return time[keep], event[keep], horizon, keep


# --- pseudo-cohort ------------------------------------------------------------

def expand(pseudo):
    """Per-subject (arm, day, event) tuples of a pseudo-cohort's count table."""
    arm, _, day, event, count = pseudo.cells()
    return [
        (a, d, e)
        for a, d, e, k in zip(arm.tolist(), day.tolist(), event.tolist(), count.tolist())
        for _ in range(k)
    ]


def exact_pseudo_cohort(cohort, covariates):
    """Sorted (arm, day, event) tuples of the pseudo-cohort, from exact arithmetic.

    Arm a's adjusted deaths by day i are A sum_z dead_{a,z}(i) size_z /
    (size_{a,z} N), summed as ``Fraction``s over the per-subject tuples of
    ``subjects(cohort)`` and rounded half-up on day 0, each death day and
    the last day.  Each rise is that many deaths on its day; the rest of
    the arm is censored on the last day.  Every (arm, stratum) cell must
    be occupied.
    """
    people = subjects(cohort)
    covs = sorted(covariates)
    strata = [tuple(s.covariates[c] for c in covs) for s in people]
    size = Counter(strata)
    cell = Counter(zip((s.treatment for s in people), strata))
    last = max(s.survival_time for s in people)
    days = sorted({0, last} | {s.survival_time for s in people if s.event == 1})
    out = []
    for arm in (0, 1):
        arm_size = sum(k for (a, _), k in cell.items() if a == arm)
        so_far = 0
        for day in days:
            dead = Counter(
                z for s, z in zip(people, strata)
                if s.treatment == arm and s.event == 1 and s.survival_time <= day
            )
            exact = arm_size * sum(
                Fraction(k * size[z], cell[arm, z] * len(people)) for z, k in dead.items()
            )
            deaths = math.floor(exact + Fraction(1, 2))
            out += [(arm, day, 1)] * (deaths - so_far)
            so_far = deaths
        out += [(arm, last, 0)] * (arm_size - so_far)
    return sorted(out)


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
