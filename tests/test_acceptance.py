"""Acceptance suite: eight numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each criterion is a single test that fails loudly if its bound is
missed.  Criterion 2 needs the real 76-subject sarcoma dataset transcribed
into ``tests/fixtures/ewing_sarcoma.csv`` (columns: id, treatment, time,
event, ldh; treatment 1 = novel regimen, ldh 1 = elevated); without the
fixture it is skipped with an explicit reason, never silently passed.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import causalsurv as cs
from causalsurv import errors
from causalsurv.cli import main
from causalsurv.graph import satisfies_backdoor, validate_dag

from oracles import (
    brute_force_d_separated,
    brute_force_do,
    central_difference,
    cohort_from_rows,
    direct_loglik,
    gradient_at,
    random_dag,
    random_tie_free_dataset,
)

FIXTURES = Path(__file__).parent / "fixtures"

CONFOUNDED = validate_dag(["z", "x", "t"], [("z", "x"), ("z", "t"), ("x", "t")])
ZSET = satisfies_backdoor(CONFOUNDED, {"z"}, "x", "t")


def _report(number, name, ok):
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="module", autouse=True)
def warm_kernel():
    # one small fit first, so the timed criteria do not pay for first-call
    # imports and numpy setup
    cs.cox_fit(np.array([1.0, 0.0, 1.0, 0.0])[:, None], [1, 2, 3, 4], [1, 1, 1, 1])


def _three_way(cohort, adjustment=ZSET):
    trials = cs.to_daily_trials(cohort, adjustment.variables)
    curve = cs.adjust_curve(cohort, trials, adjustment)
    pseudo = cs.from_adjusted_counts(curve)
    crude = cs.cox_fit(
        cohort.treatment.astype(float)[:, None], cohort.time, cohort.event
    )
    arm, _, day, event, count = pseudo.cells()
    adjusted = cs.cox_fit(arm.astype(float)[:, None], day, event, counts=count)
    return crude, adjusted, curve, pseudo


def test_criterion_1_simulated_three_way_comparison():
    start = time.monotonic()
    crude_hrs, adj_hrs, covered = [], [], []
    for seed in range(1, 201):
        cohort = cs.generate_cohort(cs.SimConfig(seed=seed))
        crude, adjusted, _, _ = _three_way(cohort)
        crude_hrs.append(float(np.exp(crude.beta[0])))
        hr, lo, hi = cs.hr_report(adjusted)
        adj_hrs.append(hr)
        covered.append(lo <= 1.0 <= hi)
    elapsed = time.monotonic() - start
    ok = (
        np.mean(crude_hrs) >= 1.3
        and 0.85 <= np.mean(adj_hrs) <= 1.18
        and np.mean(covered) >= 0.90
        and elapsed <= 60.0
    )
    print(
        f"[acceptance]   crude mean {np.mean(crude_hrs):.3f}, adjusted mean "
        f"{np.mean(adj_hrs):.3f}, coverage {np.mean(covered):.2%}, {elapsed:.1f}s"
    )
    _report(1, "simulated three-way comparison", ok)


def test_criterion_2_ewing_fixture():
    fixture = FIXTURES / "ewing_sarcoma.csv"
    if not fixture.exists():
        print("[acceptance] criterion 2 (sarcoma fixture): SKIPPED - fixture absent")
        pytest.skip(
            "sarcoma fixture not transcribed: the 76-subject individual-level "
            "dataset from the original publication is unavailable in this "
            "environment; add tests/fixtures/ewing_sarcoma.csv "
            "(id,treatment,time,event,ldh) to activate this criterion"
        )
    cohort = cs.load_cohort(
        fixture,
        {
            "id": "id",
            "treatment": "treatment",
            "time": "time",
            "event": "event",
            "covariates": ["ldh"],
        },
    )
    assert cohort.n == 76
    assert cohort.arm_sizes() == {0: 29, 1: 47}
    dag = validate_dag(
        ["ldh", "treatment", "time"],
        [("ldh", "treatment"), ("ldh", "time"), ("treatment", "time")],
    )
    adjustment = satisfies_backdoor(dag, {"ldh"}, "treatment", "time")
    crude, adjusted, _, _ = _three_way(cohort, adjustment)
    ldh = np.array(cohort.covariate_levels["ldh"], dtype=float)[cohort.codes["ldh"]]
    traditional = cs.cox_fit(
        np.column_stack([cohort.treatment.astype(float), ldh]),
        cohort.time,
        cohort.event,
    )
    checks = [
        abs(float(np.exp(crude.beta[0])) - 0.53) <= 0.05,
        abs(float(np.exp(traditional.beta[0])) - 1.12) <= 0.10,
        abs(float(np.exp(adjusted.beta[0])) - 1.04) <= 0.10,
    ]
    for fit, (lo_ref, hi_ref) in (
        (crude, (0.30, 0.96)),
        (traditional, (0.59, 2.11)),
        (adjusted, (0.57, 1.87)),
    ):
        _, lo, hi = cs.hr_report(fit)
        checks.append(abs(lo - lo_ref) <= 0.15 and abs(hi - hi_ref) <= 0.15)
    _report(2, "sarcoma fixture", all(checks))


def _random_small_cohort(rng):
    n_cov = int(rng.integers(1, 3))
    cov_names = [f"z{i}" for i in range(n_cov)]
    while True:
        n = int(rng.integers(10, 31))
        rows = [
            (
                int(rng.integers(0, 2)),
                int(rng.integers(0, 11)),
                int(rng.integers(0, 2)),
                *(rng.integers(0, 2) for _ in cov_names),
            )
            for _ in range(n)
        ]
        try:
            cohort = cohort_from_rows(rows, cov_names)
        except errors.EmptyArm:
            continue
        nodes = cov_names + ["x", "t"]
        edges = [(c, "x") for c in cov_names] + [(c, "t") for c in cov_names]
        dag = validate_dag(nodes, edges + [("x", "t")])
        adjustment = satisfies_backdoor(dag, set(cov_names), "x", "t")
        trials = cs.to_daily_trials(cohort, adjustment.variables)
        try:
            curve = cs.adjust_curve(cohort, trials, adjustment)
        except errors.PositivityViolation:
            continue
        return cohort, curve, adjustment


def test_criterion_3_adjustment_route_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(1000):
        cohort, curve, adjustment = _random_small_cohort(rng)
        for arm in (0, 1):
            direct = curve.p_at(arm, np.arange(cohort.t_max + 1))
            for day in range(cohort.t_max + 1):
                long_form = brute_force_do(cohort, adjustment, day, arm)
                worst = max(worst, abs(float(direct[day]) - long_form))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed <= 30.0
    print(f"[acceptance]   max |direct - long form| {worst:.2e}, {elapsed:.1f}s")
    _report(3, "adjustment route equivalence", ok)


def test_criterion_4_cox_oracle():
    rng = np.random.default_rng(424242)
    worst_gap = worst_rel = worst_score = 0.0
    for _ in range(500):
        x, t, beta_gs = random_tie_free_dataset(rng)
        events = np.ones(len(t), dtype=int)
        fit = cs.cox_fit(x[:, None], t, events)
        assert fit.converged
        worst_gap = max(worst_gap, abs(float(fit.beta[0]) - beta_gs))
        score = gradient_at(x[:, None], t, events, fit.beta)
        worst_score = max(worst_score, float(np.abs(score).max()))
        beta0 = float(rng.uniform(-1.0, 1.0))
        fd = central_difference(lambda b: direct_loglik(x, t, b), beta0)
        if abs(fd) >= 1e-2:
            grad = gradient_at(x[:, None], t, events, np.array([beta0]))
            worst_rel = max(worst_rel, abs(float(grad[0]) - fd) / abs(fd))
    ok = worst_gap <= 1e-4 and worst_rel <= 1e-4 and worst_score <= 1e-6
    print(
        f"[acceptance]   |newton-golden| {worst_gap:.2e}, fd rel err "
        f"{worst_rel:.2e}, score {worst_score:.2e}"
    )
    _report(4, "cox oracle agreement", ok)


def test_criterion_5_km_exactness():
    curve = cs.km_fit([1, 2, 2, 3], [1, 1, 1, 1])
    group = curve.groups[0]
    hand = [3 / 4, 1 / 4, 0.0]
    ok = all(abs(a - b) <= 1e-15 for a, b in zip(group.survival.tolist(), hand))

    # a censored fixture, product-limit by hand: (1 - 1/4) * (1 - 1/2);
    # the subject censored at 2 has left the risk set by the event at 3
    curve2 = cs.km_fit([1, 2, 3, 3], [1, 0, 1, 0])
    ok = ok and abs(curve2.groups[0].survival[0] - 0.75) <= 1e-15
    ok = ok and abs(curve2.groups[0].survival[1] - 0.75 * 0.5) <= 1e-15

    rng = np.random.default_rng(808)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        times = rng.integers(0, 25, size=n)
        km = cs.km_fit(times, np.ones(n, dtype=int))
        for day in range(26):
            if abs(km.survival_at(0, day) - (times > day).mean()) > 1e-12:
                ok = False
    _report(5, "kaplan-meier exactness", ok)


def test_criterion_6_backdoor_identification():
    ok = [s.sorted_members() for s in cs.minimal_backdoor_sets(CONFOUNDED, "x", "t")] == [("z",)]
    mediator = validate_dag(["x", "m", "y"], [("x", "m"), ("m", "y")])
    ok = ok and [s.sorted_members() for s in cs.minimal_backdoor_sets(mediator, "x", "y")] == [()]
    front_door = validate_dag(
        [("z", False), "x", "m", "y"],
        [("z", "x"), ("z", "y"), ("x", "m"), ("m", "y")],
    )
    ok = ok and cs.minimal_backdoor_sets(front_door, "x", "y") == []

    rng = np.random.default_rng(606)
    agreement = True
    for _ in range(500):
        nodes, edges = random_dag(rng)
        names = [n for n, _ in nodes]
        picks = rng.permutation(names)
        a, b = {picks[0]}, {picks[1]}
        given = set(picks[2 : 2 + int(rng.integers(0, len(names) - 1))])
        dag = validate_dag(nodes, edges)
        if cs.d_separated(dag, a, b, given) != brute_force_d_separated(
            names, edges, a, b, given
        ):
            agreement = False
            break
    _report(6, "backdoor identification", ok and agreement)


def test_criterion_7_no_bias_no_op():
    worst_gap_ratio = worst_dlog = 0.0
    for seed in range(1, 51):
        cohort = cs.generate_cohort(
            cs.SimConfig(seed=seed, p_treat_given_z={0: 0.5, 1: 0.5})
        )
        trials = cs.to_daily_trials(cohort, ZSET.variables)
        adjusted_curve = cs.adjust_curve(cohort, trials, ZSET)
        crude_curve = cs.unadjusted_curve(trials)
        arms = cohort.arm_sizes()
        for arm in (0, 1):
            gap = float(
                np.max(
                    np.abs(
                        adjusted_curve.p[arm]
                        - crude_curve.p_at(arm, adjusted_curve.grid)
                    )
                )
            )
            worst_gap_ratio = max(worst_gap_ratio, gap * 2.0 * arms[arm])
        crude, adjusted, _, _ = _three_way(cohort)
        worst_dlog = max(
            worst_dlog, abs(float(adjusted.beta[0]) - float(crude.beta[0]))
        )
    ok = worst_gap_ratio <= 1.0 and worst_dlog <= 0.05
    print(
        f"[acceptance]   max gap / (1/(2 armsize)) = {worst_gap_ratio:.3f}, "
        f"max |dlog HR| = {worst_dlog:.2e}"
    )
    _report(7, "no-bias no-op", ok)


def test_criterion_8_determinism(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(
        json.dumps(
            {
                "nodes": [{"name": "z"}, {"name": "treatment"}, {"name": "time"}],
                "edges": [
                    ["z", "treatment"],
                    ["z", "time"],
                    ["treatment", "time"],
                ],
            }
        )
    )
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--n", "200", "--seed", "17", "--out", str(data)]) == 0
    args = [
        "analyze",
        "--data", str(data),
        "--graph", str(graph),
        "--treatment", "treatment",
        "--time", "time",
        "--event", "event",
        "--covariates", "z",
    ]
    assert main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert main(args + ["--out", str(tmp_path / "run2")]) == 0
    ok = True
    for name in ("report.json", "curves.csv"):
        ok = ok and (
            (tmp_path / "run1" / name).read_bytes()
            == (tmp_path / "run2" / name).read_bytes()
        )
    _report(8, "analyze determinism", ok)
