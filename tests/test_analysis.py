import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from causalsurv import analysis
from causalsurv.analysis import AnalysisOptions, _fit_entry, run_analysis
from causalsurv.errors import UnknownCovariate
from causalsurv.trials import DailyTrials


def _write_graph(path, nodes, edges):
    path.write_text(
        json.dumps({"nodes": nodes, "edges": [list(e) for e in edges]})
    )


def _write_cohort(path, rows, header):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def three_level(tmp_path):
    # categorical confounder with three levels; level shifts both the
    # treated fraction and the survival scale
    rng = np.random.default_rng(71)
    rows = []
    for level, p_treat, scale in (("a", 0.7, 6), ("b", 0.5, 12), ("c", 0.3, 20)):
        for j in range(60):
            x = 1 if rng.random() < p_treat else 0
            t = int(rng.integers(1, scale + (3 if x else 0) + 1))
            rows.append((x, t, 1, level))
    data = tmp_path / "cohort.csv"
    _write_cohort(data, rows, ["x", "t", "s", "grade"])
    graph = tmp_path / "graph.json"
    _write_graph(
        graph,
        [{"name": "grade"}, {"name": "x"}, {"name": "t"}],
        [("grade", "x"), ("grade", "t"), ("x", "t")],
    )
    return data, graph


def _options(**kwargs):
    base = dict(
        treatment_col="x", time_col="t", event_col="s", covariate_cols=("grade",)
    )
    base.update(kwargs)
    return AnalysisOptions(**base)


def test_multi_level_covariate_pipeline(three_level):
    data, graph = three_level
    report, artifacts = run_analysis(str(data), str(graph), _options())
    assert report.adjustment_set == ("grade",)
    for entry in (report.crude, report.traditional, report.adjusted):
        assert entry.error is None
        assert entry.hr > 0
    curve = artifacts["adjusted_curve"]
    assert np.all(curve.p >= 0) and np.all(curve.p <= 1)


def test_alpha_widens_interval(three_level):
    data, graph = three_level
    narrow, _ = run_analysis(str(data), str(graph), _options(alpha=0.05))
    wide, _ = run_analysis(str(data), str(graph), _options(alpha=0.01))
    assert wide.crude.ci[0] < narrow.crude.ci[0]
    assert wide.crude.ci[1] > narrow.crude.ci[1]


def test_censoring_warning_present(tmp_path):
    rows = [
        (1, 5, 1, "0"),
        (0, 4, 0, "0"),
        (0, 5, 1, "0"),
        (1, 6, 1, "1"),
        (0, 6, 1, "1"),
    ]
    data = tmp_path / "c.csv"
    _write_cohort(data, rows, ["x", "t", "s", "z"])
    graph = tmp_path / "g.json"
    _write_graph(
        graph,
        [{"name": "z"}, {"name": "x"}, {"name": "t"}],
        [("z", "x"), ("z", "t"), ("x", "t")],
    )
    report, _ = run_analysis(
        str(data), str(graph), _options(covariate_cols=("z",))
    )
    assert any("censored subjects count as alive" in w for w in report.warnings)

    strict_report, _ = run_analysis(
        str(data),
        str(graph),
        _options(covariate_cols=("z",), strict_censoring=True),
    )
    assert any("strict censoring" in w for w in strict_report.warnings)
    assert strict_report.n == 4


def test_multiple_minimal_sets_warns_and_uses_first(tmp_path):
    # confounder chain: either node on the path blocks it, so {w} and {z}
    # are both minimal; lexicographic order picks {w}
    rng = np.random.default_rng(8)
    rows = []
    for _ in range(80):
        z = int(rng.integers(0, 2))
        w = z if rng.random() < 0.8 else 1 - z
        x = 1 if rng.random() < (0.7 if z else 0.3) else 0
        t = int(rng.integers(1, 8 + 6 * w))
        rows.append((x, t, 1, str(z), str(w)))
    data = tmp_path / "c.csv"
    _write_cohort(data, rows, ["x", "t", "s", "z", "w"])
    graph = tmp_path / "g.json"
    _write_graph(
        graph,
        [{"name": "z"}, {"name": "w"}, {"name": "x"}, {"name": "t"}],
        [("z", "x"), ("z", "w"), ("w", "t"), ("x", "t")],
    )
    report, _ = run_analysis(
        str(data), str(graph), _options(covariate_cols=("z", "w"))
    )
    assert report.adjustment_set == ("w",)
    assert any("multiple minimal backdoor sets" in w for w in report.warnings)


def test_adjustment_member_without_data_column(three_level):
    data, graph = three_level
    with pytest.raises(UnknownCovariate):
        run_analysis(str(data), str(graph), _options(covariate_cols=()))


def test_registry_scale_tied_cohort_fits_converge(tmp_path):
    # n = 10^5 with day-granular ties over five years and two confounders.
    # Summed over 10^5 un-aggregated rows, this seed's adjusted fit stalls
    # with |score| just above tolerance and stops unconverged at 50 steps.
    n = 100_000
    rng = np.random.default_rng(2)
    z = rng.integers(0, 3, size=n)
    w = rng.integers(0, 2, size=n)
    p_treat = 1.0 / (1.0 + np.exp(-(-1.0 + 0.7 * z + 0.9 * w)))
    x = (rng.random(n) < p_treat).astype(np.int64)
    rate = 0.0008 * np.exp(0.4 * z + 0.5 * w - 0.3 * x)
    t_event = np.minimum(np.floor(rng.exponential(1.0 / rate)), 1825).astype(np.int64)
    t_cens = np.floor(rng.uniform(0.0, 2500.0, size=n)).astype(np.int64)
    event = ((t_event <= t_cens) & (t_event < 1825)).astype(np.int64)
    time = np.minimum(t_event, t_cens)
    data = tmp_path / "cohort.csv"
    np.savetxt(
        data,
        np.column_stack((x, time, event, z, w)),
        fmt="%d",
        delimiter=",",
        header="x,t,s,z,w",
        comments="",
    )
    graph = tmp_path / "graph.json"
    _write_graph(
        graph,
        [{"name": v} for v in ("z", "w", "x", "t")],
        [("z", "x"), ("w", "x"), ("z", "t"), ("w", "t"), ("x", "t")],
    )
    report, _ = run_analysis(str(data), str(graph), _options(covariate_cols=("z", "w")))
    assert report.adjustment_set == ("w", "z")
    for entry in (report.crude, report.traditional, report.adjusted):
        assert entry.error is None
        assert entry.converged


def test_fit_entry_refuses_a_non_finite_interval(monkeypatch):
    # a "converged" fit that ran off along a flat direction: exp overflows
    fit = SimpleNamespace(
        beta=np.array([38.34]), se=np.array([4.7e7]), converged=True, iterations=9
    )
    monkeypatch.setattr(analysis, "cox_fit", lambda *args, **kwargs: fit)
    counts = np.ones((2, 1, 1, 2), dtype=np.int64)
    table = DailyTrials((), (), np.array([3]), counts)
    entry = _fit_entry(table, "efron", 1.959964)
    assert entry.error.startswith("NonFiniteEstimate: ")
    assert entry.to_dict() == {"error": entry.error}
