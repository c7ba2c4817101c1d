import ast
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalsurv import analysis, estimators
from causalsurv._cox_kernels import BIG, cox_layout
from causalsurv.cli import main
from causalsurv.cohort import CohortDataset, load_cohort
from causalsurv.errors import EmptyGroup

from oracles import first_empty_cell

CONFOUNDED_GRAPH = {
    "nodes": [{"name": "z"}, {"name": "treatment"}, {"name": "time"}],
    "edges": [["z", "treatment"], ["z", "time"], ["treatment", "time"]],
}

FRONT_DOOR_GRAPH = {
    "nodes": [
        {"name": "z", "observed": False},
        {"name": "treatment"},
        {"name": "m"},
        {"name": "time"},
    ],
    "edges": [["z", "treatment"], ["z", "time"], ["treatment", "m"], ["m", "time"]],
}

MEDIATOR_GRAPH = {
    "nodes": [{"name": "treatment"}, {"name": "m"}, {"name": "time"}],
    "edges": [["treatment", "m"], ["m", "time"]],
}


@pytest.fixture
def workspace(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(CONFOUNDED_GRAPH))
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--n", "200", "--seed", "9", "--out", str(data)]) == 0
    return tmp_path, graph, data


def _analyze_args(tmp_path, graph, data, out="out", extra=()):
    return [
        "analyze",
        "--data", str(data),
        "--graph", str(graph),
        "--treatment", "treatment",
        "--time", "time",
        "--event", "event",
        "--covariates", "z",
        "--out", str(tmp_path / out),
        *extra,
    ]


def test_analyze_end_to_end(workspace, capsys):
    tmp_path, graph, data = workspace
    assert main(_analyze_args(tmp_path, graph, data, extra=["--svg"])) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["schema"] == "1"
    assert report["adjustment_set"] == ["z"]
    assert report["n"] == 200
    assert report["crude"]["hr"] > 1.2
    assert 0.8 <= report["adjusted"]["hr"] <= 1.2
    assert report["traditional"]["hr"] > 0
    lines = (tmp_path / "out" / "curves.csv").read_text().splitlines()
    assert lines[0] == "variant,arm,day,survival,count"
    variants = {line.split(",")[0] for line in lines[1:]}
    assert variants == {"unadjusted", "adjusted"}
    svg = (tmp_path / "out" / "curves.svg").read_text()
    assert svg.count("<polyline") == 4
    out = capsys.readouterr().out
    assert "crude: HR" in out


def test_analyze_is_deterministic(workspace):
    tmp_path, graph, data = workspace
    assert main(_analyze_args(tmp_path, graph, data, out="a")) == 0
    assert main(_analyze_args(tmp_path, graph, data, out="b")) == 0
    for name in ("report.json", "curves.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_analyze_adjusted_km_matches_adjusted_probabilities(workspace):
    # the pseudo-cohort's KM curve reproduces the adjusted probabilities to
    # within the integerization bound of half a subject
    tmp_path, graph, data = workspace
    from causalsurv.analysis import AnalysisOptions, run_analysis
    from causalsurv.estimators import km_fit

    options = AnalysisOptions("treatment", "time", "event", ("z",), id_col="id")
    report, artifacts = run_analysis(str(data), str(graph), options)
    curve = artifacts["adjusted_curve"]
    pseudo = artifacts["pseudo"]
    arms, _, day, event, count = pseudo.cells()
    km = km_fit(day, event, arms, counts=count)
    for arm in (0, 1):
        bound = 1.0 / (2.0 * curve.arm_sizes[arm]) + 1e-12
        km_vals = np.asarray(km.survival_at(arm, curve.grid))
        assert np.max(np.abs(km_vals - curve.p[arm])) <= bound


def test_analyze_not_identifiable_front_door(tmp_path, capsys):
    graph = tmp_path / "fd.json"
    graph.write_text(json.dumps(FRONT_DOOR_GRAPH))
    data = tmp_path / "cohort.csv"
    main(["simulate", "--n", "50", "--seed", "2", "--out", str(data)])
    # front-door graph: m is a mediator column we do not even need data for
    code = main(
        [
            "analyze",
            "--data", str(data),
            "--graph", str(graph),
            "--treatment", "treatment",
            "--time", "time",
            "--event", "event",
            "--covariates", "z",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 4
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"]["type"] == "NotIdentifiable"
    assert "treatment <- z -> time" in payload["error"]["message"]


def _latent_chain_graph(length=1500):
    # treatment <- u0 -> u1 -> ... -> u1499 -> time, every u latent: the
    # only open backdoor path is longer than Python's recursion limit
    links = [f"u{i}" for i in range(length)]
    return {
        "nodes": [{"name": "treatment"}, {"name": "time"}]
        + [{"name": u, "observed": False} for u in links],
        "edges": [["u0", "treatment"], ["treatment", "time"], [links[-1], "time"]]
        + [list(pair) for pair in zip(links, links[1:])],
    }


def test_long_latent_backdoor_path_is_not_identifiable(tmp_path, capsys):
    graph = tmp_path / "chain.json"
    graph.write_text(json.dumps(_latent_chain_graph()))
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--n", "50", "--seed", "2", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(_analyze_args(tmp_path, graph, data)) == 4
    payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert payload["error"]["type"] == "NotIdentifiable"
    assert payload["error"]["exit"] == 4
    assert "treatment <- u0 -> u1 -> " in payload["error"]["message"]
    assert payload["error"]["message"].endswith("-> u1499 -> time")
    code = main(["backdoor", "--graph", str(graph), "--treatment", "treatment", "--outcome", "time"])
    assert code == 4
    assert json.loads(capsys.readouterr().out, parse_constant=pytest.fail) == payload


def test_analyze_explicit_invalid_set(tmp_path, capsys):
    graph = tmp_path / "med.json"
    graph.write_text(json.dumps(MEDIATOR_GRAPH))
    data = tmp_path / "cohort.csv"
    main(["simulate", "--n", "40", "--seed", "3", "--out", str(data)])
    code = main(
        [
            "analyze",
            "--data", str(data),
            "--graph", str(graph),
            "--treatment", "treatment",
            "--time", "time",
            "--event", "event",
            "--covariates", "z",
            "--adjustment-set", "m",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 4


def test_analyze_missing_file_is_data_error(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(CONFOUNDED_GRAPH))
    code = main(
        [
            "analyze",
            "--data", str(tmp_path / "missing.csv"),
            "--graph", str(graph),
            "--treatment", "treatment",
            "--time", "time",
            "--event", "event",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 3


def test_analyze_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--data"])
    assert exc.value.code == 2


def test_analyze_estimation_error_outside_the_fits_exits_5(workspace, capsys, monkeypatch):
    # fit errors become report entries; one raised by another stage is exit 5
    tmp_path, graph, data = workspace
    capsys.readouterr()

    def empty(*args, **kwargs):
        raise EmptyGroup("no subjects")

    monkeypatch.setattr(analysis, "km_fit", empty)
    assert main(_analyze_args(tmp_path, graph, data)) == 5
    payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert payload == {"error": {"type": "EmptyGroup", "message": "no subjects", "exit": 5}}


def test_analyze_reports_fits_that_did_not_converge(workspace, monkeypatch):
    tmp_path, graph, data = workspace
    monkeypatch.setattr(estimators, "MAX_ITER", 1)
    assert main(_analyze_args(tmp_path, graph, data)) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=pytest.fail)
    for name in ("crude", "traditional", "adjusted"):
        assert report[name]["converged"] is False and report[name]["iterations"] == 1
        assert f"{name} fit did not converge" in report["warnings"]


def test_analyze_t_max_truncates(workspace):
    tmp_path, graph, data = workspace
    assert main(_analyze_args(tmp_path, graph, data, out="cut", extra=["--t-max", "10"])) == 0
    report = json.loads((tmp_path / "cut" / "report.json").read_text())
    assert report["t_max"] == 10
    assert any("truncated" in w for w in report["warnings"])


def test_analyze_reads_time_only_as_day_codes(tmp_path, monkeypatch):
    # cohort.time expands the codes for library callers; no stage needs it
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(CONFOUNDED_GRAPH))
    data = tmp_path / "cohort.csv"
    rows = [f"{i % 2},{i * 7 % 23},{int(i % 3 > 0)},{i // 2 % 2}" for i in range(60)]
    data.write_text("treatment,time,event,z\n" + "\n".join(rows) + "\n")
    runs = {"plain": [], "filtered": ["--t-max", "15", "--strict-censoring"]}
    for name, extra in runs.items():
        assert main(_analyze_args(tmp_path, graph, data, out=name, extra=extra)) == 0

    def refuse(cohort):
        raise AssertionError("cohort.time was read")

    monkeypatch.setattr(CohortDataset, "time", property(refuse))
    for name, extra in runs.items():
        assert main(_analyze_args(tmp_path, graph, data, out=f"{name}-codes", extra=extra)) == 0
        for output in ("report.json", "curves.csv"):
            assert (tmp_path / f"{name}-codes" / output).read_bytes() == (
                tmp_path / name / output
            ).read_bytes()
    report = json.loads((tmp_path / "filtered" / "report.json").read_text())
    assert any("strict censoring mode dropped" in w for w in report["warnings"])
    assert report["t_max"] == 15


def test_analyze_breslow_and_alpha_flags(workspace):
    tmp_path, graph, data = workspace
    code = main(
        _analyze_args(
            tmp_path, graph, data, out="opts",
            extra=["--ties", "breslow", "--alpha", "0.01"],
        )
    )
    assert code == 0
    report = json.loads((tmp_path / "opts" / "report.json").read_text())
    assert report["ties"] == "breslow"
    assert report["alpha"] == 0.01
    lo, hi = report["crude"]["ci"]
    assert lo < report["crude"]["hr"] < hi


@pytest.mark.parametrize("alpha", ["2", "0", "-1", "nan", "inf", "1e-17", "5e-324"])
def test_analyze_alpha_outside_unit_interval_is_usage_error(workspace, capsys, alpha):
    tmp_path, graph, data = workspace
    with pytest.raises(SystemExit) as exc:
        main(_analyze_args(tmp_path, graph, data, extra=["--alpha", alpha]))
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_analyze_reads_csv_with_byte_order_mark(workspace):
    tmp_path, graph, data = workspace
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    for source, out in ((data, "plain"), (marked, "bom")):
        assert main(_analyze_args(tmp_path, graph, source, out=out, extra=["--id", "id"])) == 0
    report = (tmp_path / "bom" / "report.json").read_bytes()
    assert report == (tmp_path / "plain" / "report.json").read_bytes()


def test_import_loads_no_optional_modules():
    # the CLI's cold start must not pull in graph or test libraries, nor
    # the modules only rare paths use (compared across the import, so a
    # numpy that loads one itself does not count), and must not build the
    # parser, which the first main call builds
    added_by = (
        "import sys, numpy; before = set(sys.modules); import {}; "
        "print(sorted(sys.modules)); print(sorted(set(sys.modules) - before))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout.splitlines()
        for code in (
            added_by.format("causalsurv.cli")
            + "; print(causalsurv.cli.build_parser.cache_info().currsize)",
            added_by.format("argparse, json"),
        )
    ]
    everything, added, parsers = map(ast.literal_eval, runs[0])
    loaded = {name.split(".")[0] for name in everything}
    assert "causalsurv" in loaded
    assert not loaded & {"networkx", "scipy", "hypothesis"}
    assert not set(added) & {"dataclasses", "fractions", "decimal", "statistics", "csv", "_csv"}
    # outside the package, the import loads only what argparse and json do
    assert {name for name in added if name.split(".")[0] != "causalsurv"} == set(
        ast.literal_eval(runs[1][1])
    )
    assert parsers == 0


def test_calls_in_one_process_share_no_parse_state(workspace, capsys):
    # the parser is built once per process: options, defaults and errors of
    # one call must not leak into the next
    tmp_path, graph, data = workspace
    extra = ["--svg", "--alpha", "0.1", "--ties", "breslow", "--t-max", "30"]
    assert main(_analyze_args(tmp_path, graph, data, out="a", extra=extra)) == 0
    with pytest.raises(SystemExit) as exc:
        main(_analyze_args(tmp_path, graph, data, out="bad", extra=["--alpha", "2"]))
    assert exc.value.code == 2
    assert main(["backdoor", "--graph", str(graph), "--treatment", "treatment",
                 "--outcome", "time"]) == 0
    assert main(_analyze_args(tmp_path, graph, data, out="b")) == 0
    capsys.readouterr()
    first = json.loads((tmp_path / "a" / "report.json").read_text())
    assert (first["alpha"], first["ties"], first["t_max"]) == (0.1, "breslow", 30)
    assert (tmp_path / "a" / "curves.svg").exists()
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert (report["alpha"], report["ties"]) == (0.05, "efron")
    assert not (tmp_path / "b" / "curves.svg").exists()
    assert not (tmp_path / "bad").exists()
    src = str(Path(__file__).resolve().parent.parent / "src")
    subprocess.run(
        [sys.executable, "-m", "causalsurv.cli", *_analyze_args(tmp_path, graph, data, out="c")],
        capture_output=True, check=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    for name in ("report.json", "curves.csv"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


@pytest.mark.parametrize("cohort, code", [("cohort.csv", 0), ("missing.csv", 3)])
def test_a_closed_stdout_ends_quietly_with_the_command_code(workspace, cohort, code):
    tmp_path, graph, data = workspace
    argv = _analyze_args(tmp_path, graph, tmp_path / cohort)
    src = str(Path(__file__).resolve().parent.parent / "src")
    read, write = os.pipe()
    os.close(read)  # nobody will read what the command prints
    try:
        done = subprocess.run(
            [sys.executable, "-m", "causalsurv.cli", *argv], stdout=write, stderr=subprocess.PIPE,
            text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (code, "")
    assert (tmp_path / "out" / "report.json").exists() == (code == 0)


def test_backdoor_lists_minimal_sets(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(CONFOUNDED_GRAPH))
    assert main(["backdoor", "--graph", str(graph), "--treatment", "treatment", "--outcome", "time"]) == 0
    assert capsys.readouterr().out.strip() == "{z}"


def test_backdoor_mediator_prints_empty_set(tmp_path, capsys):
    graph = tmp_path / "med.json"
    graph.write_text(json.dumps(MEDIATOR_GRAPH))
    assert main(["backdoor", "--graph", str(graph), "--treatment", "treatment", "--outcome", "time"]) == 0
    assert capsys.readouterr().out.strip() == "{}"


def test_backdoor_two_confounders(tmp_path, capsys):
    graph = tmp_path / "two.json"
    graph.write_text(
        json.dumps(
            {
                "nodes": [{"name": n} for n in ("z1", "z2", "treatment", "time")],
                "edges": [
                    ["z1", "treatment"], ["z1", "time"],
                    ["z2", "treatment"], ["z2", "time"],
                    ["treatment", "time"],
                ],
            }
        )
    )
    assert main(["backdoor", "--graph", str(graph), "--treatment", "treatment", "--outcome", "time"]) == 0
    assert capsys.readouterr().out.strip() == "{z1, z2}"


def test_backdoor_front_door_not_identifiable(tmp_path, capsys):
    graph = tmp_path / "fd.json"
    graph.write_text(json.dumps(FRONT_DOOR_GRAPH))
    code = main(["backdoor", "--graph", str(graph), "--treatment", "treatment", "--outcome", "time"])
    assert code == 4
    payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert payload == {
        "error": {
            "type": "NotIdentifiable",
            "message": "no observed set satisfies the backdoor criterion for "
            "('treatment', 'time'); open backdoor path: treatment <- z -> time",
            "exit": 4,
        }
    }


def test_analyze_non_finite_fit_is_an_error_entry(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(CONFOUNDED_GRAPH))
    data = tmp_path / "cohort.csv"
    rows = ["1,0,1,0", "1,1,1,1", "1,0,0,0", "1,1,1,1", "0,2,1,0",
            "1,0,1,0", "0,2,0,1", "0,0,0,0", "0,1,1,0"]
    data.write_text("treatment,time,event,z\n" + "\n".join(rows) + "\n")
    assert main(_analyze_args(tmp_path, graph, data)) == 0
    assert "traditional: failed (NonFiniteEstimate" in capsys.readouterr().out
    text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    report = json.loads(text, parse_constant=pytest.fail)
    assert set(report["traditional"]) == {"error"}
    assert report["traditional"]["error"].startswith("NonFiniteEstimate: ")
    assert "traditional fit failed: NonFiniteEstimate: " in "\n".join(report["warnings"])
    assert "hr" in report["crude"] and "hr" in report["adjusted"]


def test_analyze_separated_covariate_is_a_monotone_error_entry(tmp_path, capsys):
    # every z=1 subject dies before any z=0 subject, with the arms balanced
    # within z: only the traditional fit's z coefficient runs off to infinity
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(CONFOUNDED_GRAPH))
    data = tmp_path / "cohort.csv"
    rows = ["0,1,1,1", "1,1,1,1", "0,2,1,1", "1,2,1,1", "0,3,1,0",
            "1,3,1,0", "0,4,0,0", "1,4,1,0", "0,5,1,0", "1,5,0,0"]
    data.write_text("treatment,time,event,z\n" + "\n".join(rows) + "\n")
    assert main(_analyze_args(tmp_path, graph, data)) == 0
    assert "traditional: failed (MonotoneLikelihood" in capsys.readouterr().out
    text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    report = json.loads(text, parse_constant=pytest.fail)
    assert set(report["traditional"]) == {"error"}
    assert report["traditional"]["error"].startswith("MonotoneLikelihood: ")
    assert "traditional fit failed: MonotoneLikelihood: " in "\n".join(report["warnings"])
    assert "hr" in report["crude"] and "hr" in report["adjusted"]


def _confounder_workspace(tmp_path, rows, covariates):
    """Cohort CSV and graph where each covariate confounds treatment and time."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({
        "nodes": [{"name": c} for c in (*covariates, "treatment", "time")],
        "edges": [["treatment", "time"]]
        + [[c, v] for c in covariates for v in ("treatment", "time")],
    }))
    data = tmp_path / "cohort.csv"
    header = ",".join(("treatment", "time", "event", *covariates))
    data.write_text("\n".join([header, *(",".join(map(str, r)) for r in rows)]) + "\n")
    extra = ("--covariates", ",".join(covariates))
    return _analyze_args(tmp_path, graph, data, extra=extra)


def test_analyze_names_the_first_empty_stratum(tmp_path, capsys):
    # strata (p,0) (p,1) (q,0) (q,1) (r,0) (r,1): only (q,1) has no treated subject
    rows = [
        (arm, 3 + k, 1, a, b)
        for k, (a, b) in enumerate((a, b) for a in "pqr" for b in "01")
        for arm in (0, 1)
        if (arm, a, b) != (1, "q", "1")
    ]
    code = main(_confounder_workspace(tmp_path, rows, ("a", "b")))
    assert code == 3
    assert json.loads(capsys.readouterr().out, parse_constant=pytest.fail) == {
        "error": {
            "type": "PositivityViolation",
            "message": "empty stratum: arm=1, covariate levels=('q', '1')",
            "exit": 3,
        }
    }


def test_more_strata_than_subjects_is_refused_in_small_memory(tmp_path, capsys):
    # 6**6 = 46 656 strata for 2 000 subjects: refused before any count table
    rng = np.random.default_rng(5)
    covariates = tuple(f"c{k}" for k in range(6))
    rows = np.column_stack([
        rng.integers(0, 2, 2000), rng.integers(0, 100, 2000), rng.integers(0, 2, 2000),
        rng.integers(0, 6, (2000, 6)),
    ])
    argv = _confounder_workspace(tmp_path, rows.tolist(), covariates)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    cohort = load_cohort(
        tmp_path / "cohort.csv",
        {"treatment": "treatment", "time": "time", "event": "event", "covariates": covariates},
    )
    arm, levels = first_empty_cell(cohort, covariates)
    assert payload["error"] == {
        "type": "PositivityViolation",
        "message": f"empty stratum: arm={arm}, covariate levels={levels!r}",
        "exit": 3,
    }
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# z confounds; w causes only time, so the auto set is {z} and w is only checked
W_GRAPH = {
    "nodes": [{"name": v} for v in ("z", "w", "treatment", "time")],
    "edges": [["z", "treatment"], ["z", "time"], ["treatment", "time"], ["w", "time"]],
}


def _blank_cell_cohort(header, blanks, quote=""):
    """8 rows of cohort CSV with ``blanks`` (column -> (row number, cell)) written in."""
    rows = [dict(zip(("treatment", "time", "event", "z", "w"), (k % 2, 3 + k, 1, k // 2 % 2, "p")))
            for k in range(8)]
    for column, (row, cell) in blanks.items():
        rows[row - 2][column] = cell
    lines = [header] + [[str(row[c]) for c in header] for row in rows]
    return "".join(",".join(quote + c + quote for c in line) + "\n" for line in lines)


@pytest.mark.parametrize(
    "header, blanks, graph, flags",
    [
        pytest.param(  # the cohort error wins over a broken graph
            "zw", {"w": (7, "")}, "{", ["--covariates", "z,w"], id="broken-graph"
        ),
        pytest.param(  # and over a set member that is not a mapped covariate
            "zw", {"w": (7, "")}, W_GRAPH, ["--covariates", "w", "--adjustment-set", "z"],
            id="unknown-member",
        ),
        pytest.param(  # an only-checked w keeps its place before the keyed z
            "wz", {"w": (3, ""), "z": (3, "")}, W_GRAPH, ["--covariates", "w,z"],
            id="row-order",
        ),
        pytest.param(
            "zw", {"w": (7, " \xa0")}, W_GRAPH, ["--covariates", "z,w"], id="nbsp"
        ),
        pytest.param(
            "zw", {"w": (7, "　")}, W_GRAPH, ["--covariates", "z,w"],
            id="ideographic-space",
        ),
    ],
)
@pytest.mark.parametrize("quote", ["", '"'])
def test_unused_covariates_report_empty_cells_first(
    tmp_path, capsys, header, blanks, graph, flags, quote
):
    columns = ["treatment", "time", "event", *header]
    data = tmp_path / "cohort.csv"
    data.write_text(_blank_cell_cohort(columns, blanks, quote), encoding="utf-8")
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(graph if isinstance(graph, str) else json.dumps(graph))
    row = min(row for row, _ in blanks.values())
    assert main(_analyze_args(tmp_path, graph_path, data, extra=flags)) == 3
    assert json.loads(capsys.readouterr().out, parse_constant=pytest.fail) == {
        "error": {"type": "MissingValue", "message": f"row {row}: column 'w' is empty", "exit": 3}
    }


def test_a_stray_quote_in_a_checked_column_is_a_data_error(tmp_path, capsys):
    # one " opening w's cell on line 152 of 200 rows: read as RFC 4180, it
    # must not fold the rows after it into that cell
    assert main(["simulate", "--n", "200", "--seed", "9", "--out", str(tmp_path / "z.csv")]) == 0
    lines = (tmp_path / "z.csv").read_text().splitlines()
    lines = [lines[0] + ",w"] + [f"{line},{'pq'[k % 2]}" for k, line in enumerate(lines[1:])]
    lines[151] = lines[151][:-1] + '"' + lines[151][-1]
    data = tmp_path / "cohort.csv"
    data.write_text("\n".join(lines) + "\n")
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(W_GRAPH))
    capsys.readouterr()
    assert main(_analyze_args(tmp_path, graph, data, extra=["--covariates", "z,w"])) == 3
    assert json.loads(capsys.readouterr().out, parse_constant=pytest.fail) == {
        "error": {"type": "CohortError", "message": "row 152: an unterminated quote", "exit": 3}
    }


def test_all_quoted_twin_gives_the_same_outputs(workspace):
    tmp_path, graph, data = workspace
    twin = tmp_path / "twin.csv"
    lines = data.read_text().splitlines()
    twin.write_text("".join(",".join(f'"{c}"' for c in line.split(",")) + "\r\n" for line in lines))
    for source, out in ((data, "plain"), (twin, "twin")):
        assert main(_analyze_args(tmp_path, graph, source, out=out, extra=["--svg"])) == 0
    for name in ("report.json", "curves.csv", "curves.svg"):
        assert (tmp_path / "twin" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_simulate_writes_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--n", "200", "--seed", "42", "--out", str(a)]) == 0
    assert main(["simulate", "--n", "200", "--seed", "42", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 201


def test_simulate_balanced_bias(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["simulate", "--n", "100", "--seed", "1", "--bias", "0.5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "P(x=1|z=0)=0.500" in printed
    assert "P(x=1|z=1)=0.500" in printed


def test_simulate_invalid_n(tmp_path, capsys):
    assert main(["simulate", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 3
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["error"]["type"] == "InvalidConfig"


def _cohort_bytes(cell="1,7,1,1"):
    return f"treatment,time,event,z\n0,5,1,0\n{cell}\n1,3,1,0\n0,4,1,1\n".encode("latin-1")


GRAPH_BYTES = json.dumps(CONFOUNDED_GRAPH).encode()
LATIN1_GRAPH_BYTES = json.dumps(CONFOUNDED_GRAPH).replace('"z"', '"z\xe9"').encode("latin-1")


@pytest.mark.parametrize(
    "command, cohort, graph, error_type, detail",
    [
        pytest.param(
            "analyze", _cohort_bytes("1,1e30,1,1"), GRAPH_BYTES,
            "NonIntegerTime", "row 3, column 'time'", id="1e30",
        ),
        pytest.param(
            "analyze", _cohort_bytes("1,99999999999999999999,1,1"), GRAPH_BYTES,
            "NonIntegerTime", "row 3, column 'time'", id="99999999999999999999",
        ),
        pytest.param(
            "analyze", _cohort_bytes("1,7,1,\xe9"), GRAPH_BYTES,
            "CohortError", "not valid UTF-8", id="latin1-cohort",
        ),
        pytest.param(
            "analyze", _cohort_bytes("1,7,1," + "a" * 200_000), GRAPH_BYTES,
            "CohortError", "line 3: field larger than field limit", id="oversized-cell",
        ),
        pytest.param(
            "analyze", _cohort_bytes('1,7,1,a"b'), GRAPH_BYTES,
            "CohortError", "row 3: a quote inside an unquoted field", id="quote-in-unquoted-field",
        ),
        pytest.param(
            "analyze", _cohort_bytes('1,7,1,"a" '), GRAPH_BYTES,
            "CohortError", "row 3: text after a closing quote", id="text-after-closing-quote",
        ),
        pytest.param(
            "analyze", _cohort_bytes('1,7,1,"a'), GRAPH_BYTES,
            "CohortError", "row 3: an unterminated quote", id="unterminated-quote",
        ),
        pytest.param(
            "analyze", _cohort_bytes("1,7,1,a\0"), GRAPH_BYTES,
            "CohortError", "row 3: a NUL byte", id="nul",
        ),
        pytest.param(
            "analyze", _cohort_bytes().replace(b",z\n", b",treatment\n", 1), GRAPH_BYTES,
            "AmbiguousColumn", "column 'treatment' appears more than once", id="duplicate-column",
        ),
        pytest.param(
            "analyze", _cohort_bytes(), LATIN1_GRAPH_BYTES,
            "GraphFileError", "byte 0xe9 at offset", id="latin1-graph",
        ),
        pytest.param(
            "backdoor", _cohort_bytes(), LATIN1_GRAPH_BYTES,
            "GraphFileError", "byte 0xe9 at offset", id="latin1-graph-backdoor",
        ),
    ],
)
def test_bad_input_is_data_error(tmp_path, capsys, command, cohort, graph, error_type, detail):
    graph_path = tmp_path / "graph.json"
    graph_path.write_bytes(graph)
    data = tmp_path / "cohort.csv"
    data.write_bytes(cohort)
    if command == "backdoor":
        argv = ["backdoor", "--graph", str(graph_path), "--treatment", "treatment",
                "--outcome", "time"]
    else:
        argv = _analyze_args(tmp_path, graph_path, data)
    code = main(argv)
    assert code == 3
    payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert payload["error"]["type"] == error_type
    assert detail in payload["error"]["message"]
    assert payload["error"]["exit"] == 3


@pytest.mark.parametrize("n", ["4000", "100000"])
def test_simulate_n_past_day_range_is_config_error(tmp_path, capsys, n):
    assert main(["simulate", "--n", n, "--out", str(tmp_path / "x.csv")]) == 3
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["error"]["type"] == "InvalidConfig"
    assert payload["error"]["message"].startswith(f"n={n} is too large")


def test_simulate_seed_7_analysis_matches_golden_outputs(tmp_path, monkeypatch):
    # report.json and curves.csv of the paper design, pinned byte for byte
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(CONFOUNDED_GRAPH))
    data = tmp_path / "cohort.csv"
    assert main(["simulate", "--seed", "7", "--out", str(data)]) == 0
    layouts = []

    def recorded(*args):
        layouts.append(cox_layout(*args))
        return layouts[-1]

    monkeypatch.setattr(estimators, "cox_layout", recorded)
    assert main(_analyze_args(tmp_path, graph, data)) == 0
    golden = Path(__file__).parent / "fixtures" / "golden_seed7"
    for name in ("report.json", "curves.csv"):
        assert (tmp_path / "out" / name).read_bytes() == (golden / name).read_bytes()
    # every tie of the three fits (the largest weighs 28) takes the exact flat
    # pass, so the closed form for large ties cannot move these bytes
    assert len(layouts) == 3
    assert all(layout.m.max() <= BIG and layout.closed.index.size == 0 for layout in layouts)


@st.composite
def cohort_bytes(draw):
    """Cohort CSV bytes for the confounded graph: mostly valid rows, and at
    times blank lines, ragged rows, quoted cells, a stray quote or NUL, a
    BOM, CRLF or lone CR line ends, and bytes that are not UTF-8."""
    valid = {
        "treatment": st.sampled_from(["0", "1", " 1"]),
        "time": st.sampled_from(["0", "1", "2", "3", "5", "8", "13", "4.0"]),
        "event": st.sampled_from(["1", "1", "0"]),
        "z": st.sampled_from(["0", "1", " 1 "]),
    }
    invalid = {
        "treatment": st.sampled_from(["2", ""]),
        "time": st.sampled_from(["-1", "2.5", "x"]),
        "event": st.sampled_from(["", "yes"]),
        "z": st.sampled_from(["\xe9", ""]),
    }
    names = list(valid)
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 30))):
        kinds = ["row"] * 80 + ["invalid", "blank", "ragged", "quoted", "stray"]
        kind = draw(st.sampled_from(kinds))
        pools = invalid if kind == "invalid" else valid
        row = [draw(pools[name] | valid[name]) for name in names]
        if kind == "ragged":
            row = row[: draw(st.integers(1, 3))]
        elif kind == "quoted":
            row = [f'"{c}"' if draw(st.booleans()) else c for c in row]
        elif kind == "stray":  # a quote or a NUL anywhere in the row
            text = ",".join(row)
            at = draw(st.integers(0, len(text)))
            row = [text[:at] + draw(st.sampled_from(['"', "\0"])) + text[at:]]
        lines.append("" if kind == "blank" else ",".join(row))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    data = (end.join(lines) + end).encode()
    if draw(st.booleans()) and draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.booleans()) and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + data[at:]
    return data


def _check_exit_contract(argv, out, codes):
    """Run ``main(argv)`` twice and check the exit contract.

    The code is in ``codes``.  Exit 2 (argparse) prints nothing to stdout
    and writes nothing; 3, 4 and 5 print a strict JSON error naming the
    code; 0 writes report.json.  Any report.json is strict JSON, and the
    second run repeats the first byte for byte.
    """
    runs = []
    for _ in range(2):
        printed, errors_printed = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors_printed):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the options
                code = exc.code
        written = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        runs.append((code, printed.getvalue(), errors_printed.getvalue(), written))
    code, printed, _, written = runs[0]
    assert code in codes
    if code == 2:
        assert printed == "" and not written
    elif code:
        payload = json.loads(printed, parse_constant=pytest.fail)
        assert payload["error"]["exit"] == code
    else:
        assert "report.json" in written
    if "report.json" in written:
        json.loads(written["report.json"], parse_constant=pytest.fail)
    assert runs[1] == runs[0]


@settings(max_examples=60)
@given(cohort_bytes())
def test_analyze_fuzzed_cohort_bytes_exit_contract(data):
    # function-scoped fixtures do not mix with @given, so make files here
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(CONFOUNDED_GRAPH))
        cohort = tmp_path / "cohort.csv"
        cohort.write_bytes(data)
        _check_exit_contract(_analyze_args(tmp_path, graph, cohort), tmp_path / "out", {0, 3, 4, 5})


@st.composite
def graph_bytes(draw):
    """Graph JSON over the cohort's columns and a latent u: mostly DAGs of
    random edges, and at times u confounding treatment and time, a cycle, a
    malformed node, a key the schema does not name, text that is not JSON,
    or bytes that are not UTF-8."""
    names = ["z", "treatment", "time", "u"]
    order = draw(st.permutations(names))
    pairs = [[a, b] for a in order for b in order[order.index(a) + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=6))
    nodes = [{"name": n, "observed": n != "u"} for n in names]
    # sampled_from favours its ends, so a DAG sits at both
    kinds = ["dag"] * 6 + [
        "latent", "cycle", "bad_node", "stray_key", "not_json", "not_utf8", "dag"
    ]
    kind = draw(st.sampled_from(kinds))
    if kind == "latent":
        edges += [e for e in (["u", "treatment"], ["u", "time"]) if e not in edges]
    elif kind == "cycle":
        edges += [["treatment", "time"], ["time", "treatment"]]
    elif kind == "bad_node":
        bad = draw(st.sampled_from([{"name": ""}, 7, {"name": "z", "observed": 1}]))
        nodes[draw(st.integers(0, 3))] = bad
    doc = {"nodes": nodes, "edges": edges}
    if kind == "stray_key":
        # a misspelt flag on a node, or an editor's extra key at the top level
        owner = draw(st.sampled_from([doc, *nodes]))
        owner[draw(st.sampled_from(["observd", "label"]))] = False
    text = json.dumps(doc)
    if kind == "not_json":
        text = text[: draw(st.integers(0, len(text) - 1))]
    data = text.encode()
    return b"\xff" + data if kind == "not_utf8" else data


@st.composite
def analyze_options(draw):
    """analyze options; at times one more that overrides an earlier one with
    a value outside what the parser or the pipeline accepts, or that lacks
    its value."""
    argv = [
        "--covariates", draw(st.sampled_from(["z", "z", ""])),
        "--adjustment-set", draw(st.sampled_from(["auto", "", "z", "auto"])),
        "--ties", draw(st.sampled_from(["efron", "breslow"])),
        "--alpha", draw(st.sampled_from(["0.05", "0.2"])),
    ]
    if draw(st.booleans()):
        argv += ["--t-max", draw(st.sampled_from(["0", "4"]))]
    if draw(st.booleans()):
        argv.append("--strict-censoring")
    # an id column may be absent, share a column with another role, or be missing
    id_column = draw(st.sampled_from([None, "z", "time", "pid"]))
    if id_column is not None:
        argv += ["--id", id_column]
    bad = [
        ("--alpha", "nan"), ("--alpha", "1"), ("--alpha", "1e-17"), ("--t-max", "x"),
        ("--t-max", "-1"), ("--ties", "exact"), ("--covariates", "z,m"), ("--treatment",),
    ]
    return argv + list(draw(st.sampled_from([()] * 8 + bad)))


def valid_cohort_bytes():
    """Cohort CSV bytes of well-formed rows, one in each (treatment, z) cell first."""
    row = st.tuples(st.integers(0, 1), st.integers(0, 8), st.integers(0, 1), st.integers(0, 1))
    rows = st.lists(row, max_size=26)
    head = "treatment,time,event,z\n0,3,1,0\n1,5,0,0\n0,4,1,1\n1,6,1,1\n"
    return rows.map(lambda rs: (head + "".join("%d,%d,%d,%d\n" % r for r in rs)).encode())


_GOOD_COHORT = b"treatment,time,event,z\n0,3,1,0\n1,5,0,0\n0,4,1,1\n1,6,1,1\n1,2,1,0\n0,7,1,1\n"
_LATENT_GRAPH = {
    "nodes": [{"name": "treatment"}, {"name": "time"}, {"name": "u", "observed": False}],
    "edges": [["u", "treatment"], ["u", "time"], ["treatment", "time"]],
}
_CYCLIC_GRAPH = {**CONFOUNDED_GRAPH, "edges": CONFOUNDED_GRAPH["edges"] + [["time", "z"]]}


# generated examples depend on the test's source, so one input per exit code
# is pinned: 0, 2 (argparse), 3 (a cycle) and 4 (latent confounding)
@settings(max_examples=30)
@example(_GOOD_COHORT, json.dumps(CONFOUNDED_GRAPH).encode(), ["--covariates", "z"])
@example(_GOOD_COHORT, json.dumps(CONFOUNDED_GRAPH).encode(), ["--alpha", "nan"])
@example(_GOOD_COHORT, json.dumps(_CYCLIC_GRAPH).encode(), ["--covariates", "z"])
@example(_GOOD_COHORT, json.dumps(_LATENT_GRAPH).encode(), ["--covariates", ""])
@example(_GOOD_COHORT, json.dumps({**CONFOUNDED_GRAPH, "title": "g"}).encode(), [])
@given(st.one_of(valid_cohort_bytes(), cohort_bytes()), graph_bytes(), analyze_options())
def test_cli_fuzzed_inputs_exit_contract(data, graph, options):
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        (tmp_path / "graph.json").write_bytes(graph)
        (tmp_path / "cohort.csv").write_bytes(data)
        # options name --covariates again, which overrides the default z
        argv = _analyze_args(
            tmp_path, tmp_path / "graph.json", tmp_path / "cohort.csv", extra=options
        )
        _check_exit_contract(argv, tmp_path / "out", {0, 2, 3, 4, 5})
