"""Seeded input generators for the three benchmark workloads.

Each generator writes cohort CSVs and one graph JSON into a directory and
returns the ``causalsurv analyze`` argument lists that use them.  Nothing
here imports ``causalsurv``: the inputs must not change when the program
does, and their sha256 digests go into every result so that results made
from different inputs are never compared.

Workloads, and why each was chosen:

* ``paper_small`` -- the paper's simulated design (``SimConfig``
  defaults: n = 200, binary z, bias 0.75), a distinct cohort per analysis.
  Fixed per-call costs dominate, so per-call overhead shows here.
* ``registry_ties`` -- n = 100 000 with day-granular ties over five
  years: the Cox fits, Kaplan-Meier and the pseudo-cohort dominate.  It is
  not among the workloads in ``BENCHMARK.json``: at this size the crude or
  the adjusted Newton fit stops unconverged after 50 iterations on about
  half of the seeds (|score| just above the 1e-8 tolerance), so those
  analyses fail the output check and take twice as long.  Run it by name
  to see the failures counted.
* ``wide_extract`` -- n = 50 000, 16 categorical pre-treatment covariates
  and a mediator: the exhaustive backdoor search and CSV ingest dominate
  while the fits see at most 49 distinct days (a 30-day grid cut at
  day 1440).

Every workload passes ``--svg`` and a ``--t-max`` horizon, so every traced
layer is entered on every workload.  For ``paper_small`` and
``registry_ties`` the horizon of day 1825 is at or past the last
follow-up day, so truncation returns the cohort unchanged.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("paper_small", "registry_ties", "wide_extract")

PAPER_GRAPH = {
    "nodes": [{"name": "z"}, {"name": "treatment"}, {"name": "time"}],
    "edges": [["z", "treatment"], ["z", "time"], ["treatment", "time"]],
}

REGISTRY_GRAPH = {
    "nodes": [{"name": n} for n in ("z", "w", "treatment", "time")],
    "edges": [
        ["z", "treatment"], ["w", "treatment"],
        ["z", "time"], ["w", "time"],
        ["treatment", "time"],
    ],
}

WIDE_COVARIATES = tuple(f"c{i:02d}" for i in range(16))
# c03..c15 alternate: odd index -> instrument (treatment only),
# even index -> outcome-only cause.
WIDE_INSTRUMENTS = tuple(c for i, c in enumerate(WIDE_COVARIATES) if i >= 3 and i % 2)
WIDE_OUTCOME_ONLY = tuple(c for i, c in enumerate(WIDE_COVARIATES) if i >= 3 and not i % 2)


def _wide_graph():
    nodes = [{"name": c} for c in WIDE_COVARIATES]
    nodes += [{"name": "treatment"}, {"name": "m"}, {"name": "time"}]
    nodes += [{"name": "u", "observed": False}, {"name": "v", "observed": False}]
    edges = [
        ["c00", "treatment"], ["c00", "time"],
        ["c01", "treatment"], ["c01", "time"],
        ["u", "c00"], ["u", "c02"], ["c02", "time"],
        ["v", "c01"],
        ["treatment", "m"], ["m", "time"], ["treatment", "time"],
    ]
    edges += [[c, "treatment"] for c in WIDE_INSTRUMENTS]
    edges += [[c, "time"] for c in WIDE_OUTCOME_ONLY]
    return {"nodes": nodes, "edges": edges}


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _half_up(value: float) -> int:
    return math.floor(value + 0.5)


def paper_cohort_csv(seed: int, n: int = 200, bias: float = 0.75) -> str:
    """The paper's exponential-ladder cohort, as ``causalsurv simulate`` writes it.

    Same assignment plan, noise stream (one PCG64 uniform per subject in
    index order) and arithmetic as ``causalsurv.simulate`` with the
    ``SimConfig`` defaults, so the CSV is byte-identical to
    ``causalsurv simulate --n 200 --seed SEED --bias 0.75``.
    """
    a, b, c, d, e = 5.0, 0.025, 0.005, -0.015, 0.075
    p_treat = {0: bias, 1: 1.0 - bias}
    n_z1 = _half_up(n * 0.5)
    plan = []
    for z, n_z in ((0, n - n_z1), (1, n_z1)):
        treated = _half_up(n_z * p_treat[z])
        plan += [(z, 1)] * treated + [(z, 0)] * (n_z - treated)
    rng = np.random.default_rng(seed)
    within = {}
    lines = ["id,treatment,time,event,z"]
    for i, (z, x) in enumerate(plan):
        noise = rng.uniform(-0.5, 0.5)
        k = within.get((z, x), 0)
        within[(z, x)] = k + 1
        raw = a * math.exp((b + c * z + d * x + e * z * x) * k) + noise
        lines.append(f"p{i},{x},{max(0, _half_up(raw))},1,{z}")
    return "\n".join(lines) + "\n"


def _csv(header, columns) -> str:
    rows = np.column_stack(columns).astype(np.int64)
    body = "\n".join(",".join(map(str, r)) for r in rows.tolist())
    return ",".join(header) + "\n" + body + "\n"


def registry_cohort_csv(seed: int, n: int = 100_000) -> str:
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 3, size=n)
    w = rng.integers(0, 2, size=n)
    p_treat = 1.0 / (1.0 + np.exp(-(-1.0 + 0.7 * z + 0.9 * w)))
    x = (rng.random(n) < p_treat).astype(np.int64)
    rate = 0.0008 * np.exp(0.4 * z + 0.5 * w - 0.3 * x)
    t_event = np.minimum(np.floor(rng.exponential(1.0 / rate)), 1825).astype(np.int64)
    t_cens = np.floor(rng.uniform(0.0, 2500.0, size=n)).astype(np.int64)
    event = ((t_event <= t_cens) & (t_event < 1825)).astype(np.int64)
    time = np.minimum(t_event, t_cens)
    return _csv(("treatment", "time", "event", "z", "w"), (x, time, event, z, w))


def wide_cohort_csv(seed: int, n: int = 50_000) -> str:
    rng = np.random.default_rng(seed)
    u = rng.random(n) < 0.5
    v = rng.random(n) < 0.5
    cov = {}
    for i, name in enumerate(WIDE_COVARIATES):
        levels = 2 + i % 3
        cov[name] = rng.integers(0, levels, size=n)
    # latent u shifts c00 and c02, latent v shifts c01
    cov["c00"] = np.where(u & (rng.random(n) < 0.6), 1, cov["c00"])
    cov["c02"] = np.where(u & (rng.random(n) < 0.6), 0, cov["c02"])
    cov["c01"] = np.where(v & (rng.random(n) < 0.4), 2, cov["c01"])
    logit = -0.4 + 0.8 * cov["c00"] - 0.5 * cov["c01"]
    for name in WIDE_INSTRUMENTS:
        logit = logit + 0.15 * cov[name]
    x = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    m = (rng.random(n) < np.where(x == 1, 0.7, 0.3)).astype(np.int64)
    lin = 0.4 * cov["c00"] + 0.3 * cov["c01"] + 0.3 * cov["c02"] - 0.4 * x + 0.3 * m
    for name in WIDE_OUTCOME_ONLY:
        lin = lin + 0.05 * cov[name]
    rate = 0.0006 * np.exp(lin)
    t_event = np.minimum(30 * np.floor(rng.exponential(1.0 / rate) / 30), 1800)
    t_cens = 30 * np.floor(rng.uniform(0.0, 2400.0, size=n) / 30)
    event = ((t_event <= t_cens) & (t_event < 1800)).astype(np.int64)
    time = np.minimum(t_event, t_cens).astype(np.int64)
    ids = np.arange(100_000, 100_000 + n)
    return _csv(
        ("id", "treatment", "time", "event", *WIDE_COVARIATES, "m"),
        (ids, x, time, event, *(cov[c] for c in WIDE_COVARIATES), m),
    )


def _analyze_args(data, graph, *extra):
    return [
        "analyze", "--data", str(data), "--graph", str(graph),
        "--treatment", "treatment", "--time", "time", "--event", "event",
        *extra,
    ]


def generate(workload: str, seed: int, directory: Path, cohorts: int = 1) -> dict:
    """Write one workload's inputs; returns the input plan.

    The plan holds ``argv`` (one analyze argument list per distinct input,
    without ``--out``) and ``digests`` (file name -> sha256).  ``cohorts``
    applies to ``paper_small`` only; the other workloads analyse one cohort
    repeatedly.
    """
    directory.mkdir(parents=True, exist_ok=True)
    graph = directory / "graph.json"
    if workload == "paper_small":
        _write(graph, json.dumps(PAPER_GRAPH))
        flags = ("--covariates", "z", "--t-max", "1825", "--svg")
        argv = []
        for k in range(cohorts):
            data = directory / f"cohort{k:05d}.csv"
            # SeedSequence-derived child seeds keep cohorts of nearby
            # workload seeds unrelated.
            child = np.random.SeedSequence([seed, k]).generate_state(1)[0]
            _write(data, paper_cohort_csv(int(child)))
            argv.append(_analyze_args(data, graph, *flags))
    elif workload == "registry_ties":
        _write(graph, json.dumps(REGISTRY_GRAPH))
        data = directory / "cohort.csv"
        _write(data, registry_cohort_csv(seed))
        flags = ("--covariates", "z,w", "--t-max", "1825", "--svg")
        argv = [_analyze_args(data, graph, *flags)]
    elif workload == "wide_extract":
        _write(graph, json.dumps(_wide_graph()))
        data = directory / "cohort.csv"
        _write(data, wide_cohort_csv(seed))
        covs = ",".join((*WIDE_COVARIATES, "m"))
        flags = ("--covariates", covs, "--t-max", "1440", "--id", "id", "--svg")
        argv = [_analyze_args(data, graph, *flags)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    digests = {p.name: _sha256(p) for p in sorted(directory.iterdir())}
    return {"argv": argv, "digests": digests}
