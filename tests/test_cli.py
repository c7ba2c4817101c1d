import json

import numpy as np
import pytest

from causalsurv.cli import main

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
    km = km_fit(pseudo.survival_time, pseudo.event, pseudo.treatment)
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


def test_analyze_t_max_truncates(workspace):
    tmp_path, graph, data = workspace
    assert main(_analyze_args(tmp_path, graph, data, out="cut", extra=["--t-max", "10"])) == 0
    report = json.loads((tmp_path / "cut" / "report.json").read_text())
    assert report["t_max"] == 10
    assert any("truncated" in w for w in report["warnings"])


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
    assert capsys.readouterr().out.strip() == "NOT IDENTIFIABLE (backdoor)"


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


@pytest.mark.parametrize("time", ["1e30", "99999999999999999999"])
def test_analyze_time_outside_int64_is_data_error(tmp_path, capsys, time):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(CONFOUNDED_GRAPH))
    data = tmp_path / "cohort.csv"
    data.write_text(f"treatment,time,event,z\n0,5,1,0\n1,{time},1,1\n1,3,1,0\n0,4,1,1\n")
    code = main(_analyze_args(tmp_path, graph, data))
    assert code == 3
    payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert payload["error"]["type"] == "NonIntegerTime"
    assert "row 3, column 'time'" in payload["error"]["message"]
    assert payload["error"]["exit"] == 3
