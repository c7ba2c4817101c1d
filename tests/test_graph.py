import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsurv import errors
from causalsurv.cli import main
from causalsurv.graph import (
    d_separated,
    descendants,
    find_open_backdoor_path,
    format_path,
    load_graph,
    minimal_backdoor_sets,
    satisfies_backdoor,
    validate_dag,
)

from oracles import (
    _descendant_map,
    brute_force_d_separated,
    brute_force_minimal_backdoor_sets,
    brute_force_satisfies_backdoor,
    random_dag,
)


@pytest.fixture
def confounded():
    # single confounder: Z -> X, Z -> T, X -> T
    return validate_dag(["Z", "X", "T"], [("Z", "X"), ("Z", "T"), ("X", "T")])


@pytest.fixture
def mediator():
    return validate_dag(["X", "M", "Y"], [("X", "M"), ("M", "Y")])


@pytest.fixture
def front_door():
    return validate_dag(
        [("Z", False), "X", "M", "Y"],
        [("Z", "X"), ("Z", "Y"), ("X", "M"), ("M", "Y")],
    )


def test_validate_dag_accepts_confounded_triangle(confounded):
    assert confounded.nodes == ("Z", "X", "T")
    assert confounded.observed == {"Z", "X", "T"}


def test_validate_dag_rejects_self_loop():
    with pytest.raises(errors.CycleDetected):
        validate_dag(["A"], [("A", "A")])


def test_validate_dag_rejects_two_cycle():
    with pytest.raises(errors.CycleDetected) as exc:
        validate_dag(["A", "B"], [("A", "B"), ("B", "A")])
    assert exc.value.cycle == ["A", "B", "A"]  # closed walk lists the repeat


@pytest.mark.parametrize(
    "nodes, edges, cycle",
    [
        pytest.param(
            ["E", "D", "C", "B", "A"],
            [("E", "A"), ("D", "B"), ("C", "E"), ("B", "C"), ("A", "D"), ("C", "A"),
             ("B", "E")],
            ["A", "D", "B", "C", "A"],
            id="edges-out-of-order",
        ),
        pytest.param(
            ["A", "B", "C", "D", "Y", "Z"],
            [("Y", "Z"), ("Z", "Y"), ("Z", "A"), ("A", "B"), ("B", "C"), ("C", "D"),
             ("D", "B")],
            ["B", "C", "D", "B"],
            id="through-a-tail",
        ),
        pytest.param(
            ["A", "B", "C", "D", "E", "F"],
            [("C", "D"), ("D", "C"), ("A", "E"), ("E", "B"), ("B", "A"), ("F", "A")],
            ["A", "E", "B", "A"],
            id="two-disjoint-cycles",
        ),
        pytest.param(
            # the first node left over lies below the cycle and has no child
            ["A", "B", "C"], [("B", "C"), ("C", "B"), ("B", "A")], ["B", "C", "B"],
            id="sink-below-cycle-sorts-first",
        ),
    ],
)
def test_validate_dag_names_the_cycle(nodes, edges, cycle):
    with pytest.raises(errors.CycleDetected) as exc:
        validate_dag(nodes, edges)
    assert exc.value.cycle == cycle


def test_validate_dag_rejects_duplicate_node():
    with pytest.raises(errors.DuplicateNode):
        validate_dag(["A", "A"], [])


def test_validate_dag_rejects_unknown_edge_endpoint():
    with pytest.raises(errors.UnknownNode):
        validate_dag(["A"], [("A", "B")])


def test_validate_dag_rejects_duplicate_edge():
    with pytest.raises(errors.DuplicateEdge):
        validate_dag(["A", "B"], [("A", "B"), ("A", "B")])


def test_descendants_chain():
    dag = validate_dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
    assert descendants(dag, "A") == {"B", "C"}


def test_descendants_confounded(confounded):
    assert descendants(confounded, "X") == {"T"}


def test_descendants_isolated_node():
    dag = validate_dag(["N", "M"], [])
    assert descendants(dag, "N") == set()


def test_descendants_unknown_node(confounded):
    with pytest.raises(errors.UnknownNode):
        descendants(confounded, "Q")


def test_descendants_transitive_closure():
    rng = np.random.default_rng(11)
    for _ in range(50):
        nodes, edges = random_dag(rng)
        dag = validate_dag(nodes, edges)
        desc = {v: descendants(dag, v) for v, _ in nodes}
        for a, reach in desc.items():
            for b in reach:
                assert desc[b] <= reach


def test_d_separated_chain():
    dag = validate_dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
    assert d_separated(dag, {"A"}, {"C"}, {"B"})
    assert not d_separated(dag, {"A"}, {"C"}, set())


def test_d_separated_collider():
    dag = validate_dag(["A", "B", "C"], [("A", "B"), ("C", "B")])
    assert d_separated(dag, {"A"}, {"C"}, set())
    assert not d_separated(dag, {"A"}, {"C"}, {"B"})


def test_d_separated_collider_descendant():
    dag = validate_dag(["A", "B", "C", "D"], [("A", "B"), ("C", "B"), ("B", "D")])
    assert not d_separated(dag, {"A"}, {"C"}, {"D"})


def test_d_separated_after_removing_treatment_edge():
    # triangle with X -> T removed: Z blocks the only remaining path
    dag = validate_dag(["Z", "X", "T"], [("Z", "X"), ("Z", "T")])
    assert brute_force_d_separated(["Z", "X", "T"], [("Z", "X"), ("Z", "T")],
                                   {"X"}, {"T"}, {"Z"})
    assert d_separated(dag, {"X"}, {"T"}, {"Z"})


def test_d_separated_rejects_overlap():
    dag = validate_dag(["A", "B"], [("A", "B")])
    with pytest.raises(errors.OverlappingSets):
        d_separated(dag, {"A"}, {"A"}, set())


def _separation_query(rng, names, max_side):
    """Disjoint sets a and b of 1..max_side nodes each, and a conditioning set."""
    picks = [str(v) for v in rng.permutation(names)]
    ka = kb = 1
    if max_side > 1:
        ka = int(rng.integers(1, min(max_side, len(names) - 1) + 1))
        kb = int(rng.integers(1, min(max_side, len(names) - ka) + 1))
    end = ka + kb + int(rng.integers(0, len(names) - ka - kb + 1))
    return set(picks[:ka]), set(picks[ka : ka + kb]), set(picks[ka + kb : end])


def test_d_separated_matches_brute_force_and_is_symmetric():
    rng = np.random.default_rng(2024)
    # single nodes on each side, then sets of 1-3 nodes on each side
    for max_side in (1, 3):
        for _ in range(150):
            nodes, edges = random_dag(rng)
            names = [n for n, _ in nodes]
            a, b, given = _separation_query(rng, names, max_side)
            dag = validate_dag(nodes, edges)
            got = d_separated(dag, a, b, given)
            assert got == brute_force_d_separated(names, edges, a, b, given)
            assert got == d_separated(dag, b, a, given)


def test_d_separated_matches_networkx_beyond_path_enumeration():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(31)
    separated = 0
    for _ in range(300):
        nodes, edges = random_dag(rng, max_nodes=20, edge_prob=0.2, latent_prob=0.25)
        names = [n for n, _ in nodes]
        a, b, given = _separation_query(rng, names, 3)
        graph = nx.DiGraph(edges)
        graph.add_nodes_from(names)
        got = d_separated(validate_dag(nodes, edges), a, b, given)
        assert got == nx.is_d_separator(graph, a, b, given)
        separated += got
    assert 30 < separated < 270


def test_backdoor_confounder_is_valid(confounded):
    assert satisfies_backdoor(confounded, {"Z"}, "X", "T").valid


def test_backdoor_empty_set_on_mediator(mediator):
    assert satisfies_backdoor(mediator, set(), "X", "Y").valid


def test_backdoor_mediator_member_invalid(mediator):
    assert not satisfies_backdoor(mediator, {"M"}, "X", "Y").valid


def test_backdoor_unobserved_member_invalid(front_door):
    assert not satisfies_backdoor(front_door, {"Z"}, "X", "Y").valid


def test_satisfies_backdoor_matches_independent_oracle():
    rng = np.random.default_rng(47)
    verdicts = []
    for _ in range(300):
        nodes, edges = random_dag(rng, edge_prob=0.5, latent_prob=0.25)
        names = [n for n, _ in nodes]
        treatment, outcome = (str(v) for v in rng.choice(names, 2, replace=False))
        dag = validate_dag(nodes, edges)
        latent = sorted(n for n, obs in nodes if not obs and n not in (treatment, outcome))
        below = sorted(_descendant_map(names, edges)[treatment] - {outcome})
        candidates = [n for n, obs in nodes
                      if obs and n not in (treatment, outcome) and n not in below]
        draws = [set()]
        for _ in range(4 if candidates else 0):
            size = rng.integers(0, len(candidates) + 1)
            picked = {str(v) for v in rng.choice(candidates, size, replace=False)}
            draws.append(picked)
            draws += [picked | {str(rng.choice(extra))} for extra in (latent, below) if extra]
        for z in draws:
            got = satisfies_backdoor(dag, z, treatment, outcome).valid
            assert got == brute_force_satisfies_backdoor(nodes, edges, z, treatment, outcome)
            verdicts.append(got)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_backdoor_treatment_equals_outcome(confounded):
    with pytest.raises(errors.TreatmentEqualsOutcome):
        satisfies_backdoor(confounded, set(), "X", "X")


def test_minimal_sets_confounded(confounded):
    sets = minimal_backdoor_sets(confounded, "X", "T")
    assert [s.sorted_members() for s in sets] == [("Z",)]


def test_minimal_sets_mediator(mediator):
    sets = minimal_backdoor_sets(mediator, "X", "Y")
    assert [s.sorted_members() for s in sets] == [()]


def test_minimal_sets_front_door_latent_not_identifiable(front_door):
    assert minimal_backdoor_sets(front_door, "X", "Y") == []


def test_minimal_sets_two_confounders():
    dag = validate_dag(
        ["Z1", "Z2", "X", "T"],
        [("Z1", "X"), ("Z1", "T"), ("Z2", "X"), ("Z2", "T"), ("X", "T")],
    )
    sets = minimal_backdoor_sets(dag, "X", "T")
    assert [s.sorted_members() for s in sets] == [("Z1", "Z2")]


def test_minimal_sets_several_in_order():
    # X <- A <- B -> Y and X <- C -> Y: either link of the chain, plus C;
    # the latent L on a third path leaves only its observed parent D
    dag = validate_dag(
        ["A", "B", "C", "D", ("L", False), "X", "Y"],
        [("B", "A"), ("A", "X"), ("B", "Y"), ("C", "X"), ("C", "Y"),
         ("D", "L"), ("L", "X"), ("D", "Y"), ("X", "Y")],
    )
    sets = minimal_backdoor_sets(dag, "X", "Y")
    assert [s.sorted_members() for s in sets] == [("A", "C", "D"), ("B", "C", "D")]
    assert all(s.valid and (s.treatment, s.outcome) == ("X", "Y") for s in sets)


def test_minimal_sets_are_inclusion_minimal():
    rng = np.random.default_rng(5)
    for _ in range(40):
        nodes, edges = random_dag(rng, max_nodes=7, latent_prob=0.2)
        names = [n for n, _ in nodes]
        dag = validate_dag(nodes, edges)
        tr, out = names[0], names[1]
        sets = minimal_backdoor_sets(dag, tr, out)
        for s in sets:
            assert satisfies_backdoor(dag, s.variables, tr, out).valid
            for member in s.variables:
                smaller = s.variables - {member}
                assert not satisfies_backdoor(dag, smaller, tr, out).valid


def test_minimal_sets_graph_too_large():
    names = [f"c{i}" for i in range(21)] + ["X", "Y"]
    edges = [(f"c{i}", "X") for i in range(21)] + [(f"c{i}", "Y") for i in range(21)]
    dag = validate_dag(names, edges + [("X", "Y")])
    with pytest.raises(errors.GraphTooLarge):
        minimal_backdoor_sets(dag, "X", "Y")


@st.composite
def dags_with_pair(draw):
    """A DAG of at most 12 nodes, about a quarter latent, and two of its nodes."""
    n = draw(st.integers(3, 12))
    order = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    density = draw(st.sampled_from([2, 3, 5]))  # one edge in `density` pairs
    keep = draw(st.lists(st.sampled_from([True] + [False] * (density - 1)),
                         min_size=len(pairs), max_size=len(pairs)))
    observed = draw(st.lists(st.sampled_from([True, True, True, False]),
                             min_size=n, max_size=n))
    treatment, outcome = draw(st.lists(st.sampled_from(order), min_size=2,
                                       max_size=2, unique=True))
    dag = validate_dag(list(zip(order, observed)),
                       [pair for pair, k in zip(pairs, keep) if k])
    return dag, treatment, outcome


@settings(max_examples=400)
@given(dags_with_pair())
def test_minimal_sets_match_exhaustive_search(case):
    dag, treatment, outcome = case
    assert minimal_backdoor_sets(dag, treatment, outcome) == (
        brute_force_minimal_backdoor_sets(dag, treatment, outcome)
    )


def test_minimal_sets_are_minimal_d_separators_for_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(300):
        nodes, edges = random_dag(rng, max_nodes=12, edge_prob=0.3, latent_prob=0.25)
        names = [n for n, _ in nodes]
        treatment, outcome = (str(v) for v in rng.choice(names, 2, replace=False))
        dag = validate_dag(nodes, edges)
        backdoor = nx.DiGraph([(a, b) for a, b in edges if a != treatment])
        backdoor.add_nodes_from(names)
        for s in minimal_backdoor_sets(dag, treatment, outcome):
            assert nx.is_minimal_d_separator(backdoor, treatment, outcome, set(s.variables))
            checked += 1
    assert checked > 100


def test_minimal_sets_wide_graph():
    # the benchmark's wide graph: confounders c00 and c01 (c00 shares a
    # latent cause with the outcome cause c02), instruments, outcome-only
    # causes and a mediator
    covariates = [f"c{i:02d}" for i in range(16)]
    nodes = covariates + ["treatment", "m", "time", ("u", False), ("v", False)]
    edges = [
        ("c00", "treatment"), ("c00", "time"), ("c01", "treatment"), ("c01", "time"),
        ("u", "c00"), ("u", "c02"), ("c02", "time"), ("v", "c01"),
        ("treatment", "m"), ("m", "time"), ("treatment", "time"),
    ]
    edges += [(c, "treatment") for i, c in enumerate(covariates) if i >= 3 and i % 2]
    edges += [(c, "time") for i, c in enumerate(covariates) if i >= 3 and not i % 2]
    dag = validate_dag(nodes, edges)
    sets = minimal_backdoor_sets(dag, "treatment", "time")
    assert [s.sorted_members() for s in sets] == [("c00", "c01")]


def test_open_backdoor_path_on_front_door(front_door):
    path = find_open_backdoor_path(front_door, "X", "Y")
    assert path is not None
    assert format_path(front_door, path) == "X <- Z -> Y"


def test_load_graph_roundtrip(tmp_path, confounded):
    doc = {
        "nodes": [{"name": "Z"}, {"name": "X"}, {"name": "T"}],
        "edges": [["Z", "X"], ["Z", "T"], ["X", "T"]],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    dag = load_graph(path)
    assert dag.nodes == confounded.nodes
    assert dag.edges == confounded.edges
    assert dag == confounded and hash(dag) == hash(confounded)
    assert repr(dag) == repr(confounded)


def test_load_graph_honors_observed_flag(tmp_path):
    doc = {
        "nodes": [{"name": "Z", "observed": False}, {"name": "X"}],
        "edges": [["Z", "X"]],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    dag = load_graph(path)
    assert dag.observed == {"X"}


def test_load_graph_reads_string_nodes_as_observed(tmp_path):
    edges = [["Z", "X"], ["Z", "T"], ["X", "T"]]
    dags = []
    for nodes in (["Z", "X", "T"], [{"name": "Z"}, {"name": "X"}, {"name": "T"}]):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": nodes, "edges": edges}))
        dags.append(load_graph(path))
    strings, objects = dags
    assert strings == objects
    assert strings.observed == {"Z", "X", "T"}


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"nodes": "nope", "edges": []}, '"nodes" must be an array'),
        ({"nodes": [{"observed": True}], "edges": []}, "nodes[0]"),
        ({"nodes": [{"name": "A"}], "edges": [["A"]]}, "edges[0]"),
        ({"nodes": [{"name": "A"}]}, '"edges" must be an array'),
        # a repeated key would keep only its last value, so the file is refused
        pytest.param('{"nodes": ["A", "B"], "edges": [["A", "B"]], "edges": []}',
                     'bad.json: key "edges" is repeated', id="repeated-edges"),
        pytest.param('{"nodes": ["A", "B"], "edges": [], "nodes": ["A"]}',
                     'bad.json: key "nodes" is repeated', id="repeated-nodes"),
        pytest.param('{"nodes": [{"name": "u", "observed": false, "observed": true}], '
                     '"edges": []}', 'nodes[0]: key "observed" is repeated',
                     id="repeated-observed"),
        # the schema is closed: a misspelt "observed" would otherwise read as true
        pytest.param({"nodes": [{"name": "u", "observd": False}, "treatment", "time"],
                      "edges": [["u", "treatment"], ["u", "time"], ["treatment", "time"]]},
                     'bad.json: nodes[0]: unknown key "observd"', id="misspelt-node-key"),
        pytest.param({"nodes": ["A", {"name": "B", "label": "b"}], "edges": []},
                     'bad.json: nodes[1]: unknown key "label"', id="extra-node-key"),
        pytest.param('{"title": "g", "nodes": [{"name": "A", "pos": [0, 0]}], "edges": []}',
                     'bad.json: unknown key "title"', id="extra-top-level-key"),
    ],
)
def test_load_graph_position_annotated_errors(tmp_path, doc, fragment):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(errors.GraphFileError) as exc:
        load_graph(path)
    assert fragment in str(exc.value)


def test_load_graph_invalid_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": [}')
    with pytest.raises(errors.GraphFileError) as exc:
        load_graph(path)
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize(
    "text, detail",
    [
        pytest.param("[" * 200_000 + "]" * 200_000, "maximum recursion depth", id="deep"),
        pytest.param('{"nodes": [], "edges": [], "n": ' + "9" * 5000 + "}",
                     "Exceeds the limit", id="huge-integer"),
    ],
)
def test_load_graph_unparsable_json_is_graph_file_error(tmp_path, capsys, text, detail):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(errors.GraphFileError) as exc:
        load_graph(path)
    assert detail in str(exc.value)
    code = main(["backdoor", "--graph", str(path), "--treatment", "X", "--outcome", "Y"])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)["error"]
    assert payload["type"] == "GraphFileError" and detail in payload["message"]
