"""Causal DAG representation, d-separation, and backdoor-set identification.

A DAG is the graphical half of a structural causal model: nodes are
variables (observed or latent), directed edges are direct causal
influences.  Identification of the treatment effect reduces to finding an
observed set of nodes that satisfies the backdoor criterion relative to
(treatment, outcome): no member descends from the treatment, and the set
blocks every path into the treatment that reaches the outcome.  Latent
nodes participate in paths but may never be adjusted for, which is what
makes identifiability fail in latent-confounding shapes.

Every separation question is answered in one kind of graph: Z
d-separates A from B iff Z separates them in the moral graph of
An(A | B | Z) (Lauritzen, Dawid, Larsen & Leimer 1990).  One walk,
``_reach``, finds every reachable set.  The inclusion-minimal backdoor
sets are the minimal treatment-outcome separators in the moral graph of
the ancestors of {treatment, outcome}, taken after the treatment's
out-edges are removed and restricted to observed non-descendants of the
treatment.  They are listed by branching over closest minimal separators
(Takata 2010; van der Zander, Liśkiewicz & Textor 2019, LISTMINSEP), so
the work grows with the number of sets found rather than with the number
of candidate subsets.

All graph values are immutable after validation and every operation is a
pure function, so concurrent readers are safe.
"""

import json
from collections import deque
from pathlib import Path
from typing import NamedTuple

from .errors import (
    CycleDetected,
    DuplicateEdge,
    DuplicateNode,
    GraphError,
    GraphFileError,
    GraphTooLarge,
    OverlappingSets,
    TreatmentEqualsOutcome,
    UnknownNode,
)

__all__ = [
    "CausalDag",
    "AdjustmentSet",
    "validate_dag",
    "descendants",
    "d_separated",
    "satisfies_backdoor",
    "minimal_backdoor_sets",
    "load_graph",
    "find_open_backdoor_path",
]

# Graphs with more candidate covariates (observed non-descendants of the
# treatment) than this are rejected with GraphTooLarge.  The separator
# enumeration does not need the cap; it bounds the accepted inputs.
MAX_CANDIDATES = 20


class CausalDag:
    """Validated directed acyclic graph with per-node observability flags.

    Immutable; equal, hashed and shown by (nodes, observed, edges).
    """

    __slots__ = ("nodes", "observed", "edges", "_parents", "_children")

    def __init__(
        self,
        nodes: tuple[str, ...],
        observed: frozenset[str],
        edges: tuple[tuple[str, str], ...],
    ):
        parents = {v: [] for v in nodes}
        children = {v: [] for v in nodes}
        for a, b in edges:
            parents[b].append(a)
            children[a].append(b)
        # sorted adjacency keeps every traversal deterministic
        for name, value in (
            ("nodes", nodes),
            ("observed", observed),
            ("edges", edges),
            ("_parents", {v: tuple(sorted(ps)) for v, ps in parents.items()}),
            ("_children", {v: tuple(sorted(cs)) for v, cs in children.items()}),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _key(self):
        return self.nodes, self.observed, self.edges

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "CausalDag(nodes={!r}, observed={!r}, edges={!r})".format(*self._key())

    def parents(self, node: str) -> tuple[str, ...]:
        self._require(node)
        return self._parents[node]

    def children(self, node: str) -> tuple[str, ...]:
        self._require(node)
        return self._children[node]

    def observed_nodes(self) -> tuple[str, ...]:
        return tuple(v for v in self.nodes if v in self.observed)

    def _require(self, node: str) -> None:
        if node not in self._parents:
            raise UnknownNode(f"unknown node {node!r}")


class AdjustmentSet(NamedTuple):
    """Candidate adjustment set for the stored (treatment, outcome) pair."""

    variables: frozenset[str]
    valid: bool
    treatment: str
    outcome: str

    def sorted_members(self) -> tuple[str, ...]:
        return tuple(sorted(self.variables))


def validate_dag(nodes, edges) -> CausalDag:
    """Build a CausalDag, rejecting duplicates, dangling edges, and cycles.

    ``nodes`` entries are either plain names (observed) or (name, observed)
    pairs.  ``edges`` entries are (parent, child) pairs.
    """
    names: list[str] = []
    observed: set[str] = set()
    seen: set[str] = set()
    for item in nodes:
        if isinstance(item, str):
            name, obs = item, True
        else:
            name, obs = item
        if not isinstance(name, str) or not name:
            raise GraphError(f"node name must be a non-empty string, got {name!r}")
        if name in seen:
            raise DuplicateNode(f"duplicate node {name!r}")
        seen.add(name)
        names.append(name)
        if obs:
            observed.add(name)

    edge_list: list[tuple[str, str]] = []
    edge_seen: set[tuple[str, str]] = set()
    for a, b in edges:
        for end in (a, b):
            if end not in seen:
                raise UnknownNode(f"edge endpoint {end!r} is not a declared node")
        if a == b:
            raise CycleDetected([a, a])
        if (a, b) in edge_seen:
            raise DuplicateEdge(f"duplicate edge {a!r} -> {b!r}")
        edge_seen.add((a, b))
        edge_list.append((a, b))

    dag = CausalDag(tuple(names), frozenset(observed), tuple(edge_list))
    _check_acyclic(dag)
    return dag


def _check_acyclic(dag):
    """Raise CycleDetected naming one cycle of ``dag``, if it has any."""
    # Peel nodes with no parent left, then nodes with no child left: each
    # node still left has a child left, so walking along them repeats one.
    left = set(dag.nodes)
    for links, back in ((dag._parents, dag._children), (dag._children, dag._parents)):
        count = {v: len(left.intersection(links[v])) for v in left}
        peel = [v for v, k in count.items() if not k]
        for v in peel:  # the list grows while it is read
            left.remove(v)
            for w in back[v]:
                if w in left:
                    count[w] -= 1
                    if not count[w]:
                        peel.append(w)
    if left:
        trail, pos = [min(left)], {}
        while trail[-1] not in pos:
            pos[trail[-1]] = len(trail) - 1
            trail.append(next(c for c in dag._children[trail[-1]] if c in left))
        raise CycleDetected(trail[pos[trail[-1]]:])


def _reach(neighbours, seeds, blocked=frozenset()):
    """``seeds`` plus every node they reach without entering a ``blocked`` node."""
    out = set(seeds)
    queue = deque(out)
    while queue:
        for w in neighbours[queue.popleft()]:
            if w not in out and w not in blocked:
                out.add(w)
                queue.append(w)
    return out


def descendants(dag: CausalDag, node: str) -> set[str]:
    """All nodes reachable from ``node`` by directed paths, excluding itself."""
    dag._require(node)
    return _reach(dag._children, [node]) - {node}


def _moral_ancestral_graph(parents, targets):
    """Undirected adjacency of the moral graph of the ancestors of ``targets``.

    Z separates A from B in it iff Z d-separates them, when the targets are
    A | B | Z, or are A | B with Z among their ancestors (Lauritzen et al.).
    """
    keep = _reach(parents, targets)
    adjacent = {v: set() for v in keep}
    for v in keep:
        ps = parents[v]
        for i, p in enumerate(ps):
            adjacent[v].add(p)
            adjacent[p].add(v)
            for q in ps[i + 1:]:  # parents of a common child are married
                adjacent[p].add(q)
                adjacent[q].add(p)
    return adjacent


def _separated(parents, a, b, given):
    """True iff ``given`` d-separates the disjoint sets ``a`` and ``b``."""
    adjacent = _moral_ancestral_graph(parents, a | b | given)
    return _reach(adjacent, a, given).isdisjoint(b)


def _as_name_set(dag, value, label):
    out = frozenset(value)
    for name in out:
        if name not in dag._parents:
            raise UnknownNode(f"unknown node {name!r} in {label}")
    return out


def d_separated(dag: CausalDag, a, b, given) -> bool:
    """True iff ``given`` blocks every path between the sets ``a`` and ``b``.

    The test is separation in the moral graph of An(a | b | given).
    """
    a = _as_name_set(dag, a, "first set")
    b = _as_name_set(dag, b, "second set")
    given = _as_name_set(dag, given, "conditioning set")
    for x, y in ((a, b), (a, given), (b, given)):
        overlap = x & y
        if overlap:
            raise OverlappingSets(f"sets overlap on {sorted(overlap)!r}")
    return _separated(dag._parents, a, b, given)


def _backdoor_parents(dag, treatment):
    """Parent lists of the graph with every edge out of ``treatment`` removed."""
    parents = dict(dag._parents)
    for c in dag._children[treatment]:
        parents[c] = tuple(p for p in parents[c] if p != treatment)
    return parents


def satisfies_backdoor(dag: CausalDag, z, treatment: str, outcome: str) -> AdjustmentSet:
    """Check the backdoor criterion for ``z`` relative to (treatment, outcome).

    Valid iff every member is observed, none descends from the treatment,
    and ``z`` d-separates treatment from outcome once all edges out of the
    treatment are removed, tested as separation in the moral graph of
    An({treatment, outcome} | z) of that graph.
    """
    dag._require(treatment)
    dag._require(outcome)
    if treatment == outcome:
        raise TreatmentEqualsOutcome(f"treatment and outcome are both {treatment!r}")
    z = _as_name_set(dag, z, "adjustment set")
    if treatment in z or outcome in z:
        raise OverlappingSets("adjustment set must exclude treatment and outcome")

    valid = z <= dag.observed and not (z & descendants(dag, treatment))
    if valid:
        valid = _separated(_backdoor_parents(dag, treatment), {treatment}, {outcome}, z)
    return AdjustmentSet(z, valid, treatment, outcome)


def _boundary(adjacent, part):
    """Nodes outside ``part`` adjacent to some node in it."""
    return set().union(*(adjacent[v] for v in part)) - part


def minimal_backdoor_sets(dag: CausalDag, treatment: str, outcome: str) -> list[AdjustmentSet]:
    """All inclusion-minimal observed sets satisfying the backdoor criterion.

    These are the minimal separators of treatment and outcome in the moral
    graph of An({treatment, outcome}) of the backdoor graph whose members
    are all observed non-descendants of the treatment.  Each state of the
    search is an s-side (a connected node set holding the treatment) and a
    set of nodes barred from it.  The s-side first takes in every node it
    reaches through nodes that may not be adjusted for.  The minimal
    separator closest to it (the neighbours of the outcome's component
    outside the s-side and its neighbours) is then emitted once all its
    members are barred, or else split on one member: that member joins
    the s-side in one branch and is barred from it in the other.  Every
    minimal set is emitted exactly once, with polynomial delay.

    The result is ascending by size then lexicographically; an empty
    result means the effect is not backdoor-identifiable.
    """
    dag._require(treatment)
    dag._require(outcome)
    if treatment == outcome:
        raise TreatmentEqualsOutcome(f"treatment and outcome are both {treatment!r}")
    banned = descendants(dag, treatment) | {treatment, outcome}
    allowed = dag.observed - banned
    if len(allowed) > MAX_CANDIDATES:
        raise GraphTooLarge(
            f"{len(allowed)} candidate nodes exceed the cap of {MAX_CANDIDATES}"
        )
    adjacent = _moral_ancestral_graph(_backdoor_parents(dag, treatment), [treatment, outcome])
    found = []
    stack = [({treatment}, frozenset())]
    while stack:
        s_side, barred = stack.pop()
        # nodes that may not be adjusted for cannot separate, so the s-side
        # takes in all it reaches through them, the outcome included
        s_side = _reach(adjacent, s_side, allowed)
        if outcome in s_side:
            continue
        t_side = _reach(adjacent, [outcome], s_side | _boundary(adjacent, s_side))
        z = _boundary(adjacent, t_side)
        s_component = _reach(adjacent, [treatment], z)
        if not barred.isdisjoint(s_component):
            continue
        free = sorted(z - barred)
        if not free:
            found.append(z)
            continue
        stack.append((s_side, barred | {free[0]}))
        stack.append((s_component | {free[0]}, barred))
    found.sort(key=lambda z: (len(z), sorted(z)))
    return [AdjustmentSet(frozenset(z), True, treatment, outcome) for z in found]


def find_open_backdoor_path(dag: CausalDag, treatment: str, outcome: str):
    """A shortest backdoor path left open by the empty set, or None.

    Used to explain non-identifiability: a path starting with an arrow into
    the treatment that contains no collider is open unconditionally.
    """
    dag._require(treatment)
    dag._require(outcome)
    # Breadth-first over (node, arrived_into) states.  After a step along
    # an edge into a node the path may only go on to children: turning
    # back to a parent would make that node a collider, which the empty
    # set blocks.
    start = [(p, False) for p in dag.parents(treatment)]
    came_from = dict.fromkeys(start)
    queue = deque(start)
    while queue:
        state = queue.popleft()
        node, arrived_into = state
        if node == outcome:
            path = []
            while state is not None:
                path.append(state[0])
                state = came_from[state]
            return [treatment, *reversed(path)]
        steps = [(c, True) for c in dag.children(node)]
        if not arrived_into:
            steps += [(p, False) for p in dag.parents(node)]
        for step in sorted(steps):
            if step[0] != treatment and step not in came_from:
                came_from[step] = state
                queue.append(step)
    return None


def format_path(dag: CausalDag, path) -> str:
    """Render a node path with edge directions, e.g. ``X <- Z -> Y``."""
    parts = [path[0]]
    for a, b in zip(path, path[1:]):
        arrow = " -> " if b in dag.children(a) else " <- "
        parts.append(arrow + b)
    return "".join(parts)


# --- graph JSON interface ----------------------------------------------------

class _Repeated(dict):
    """A JSON object that names ``key`` more than once; the last value is kept."""

    __slots__ = ("key",)


def _first_repeated(doc):
    """(position, key) of the first object in ``doc`` that repeats a key."""
    stack = [("", doc)]
    while stack:  # depth first, in document order
        where, value = stack.pop()
        if isinstance(value, _Repeated):
            return where, value.key
        if isinstance(value, dict):
            items = [(f"{where}.{k}" if where else k, v) for k, v in value.items()]
        elif isinstance(value, list):
            items = [(f"{where}[{i}]", v) for i, v in enumerate(value)]
        else:
            continue
        stack.extend(reversed(items))


def load_graph(source) -> CausalDag:
    """Read a graph JSON file: {"nodes": [...], "edges": [[parent, child], ...]}.

    Node entries are objects with "name" (string) and optional "observed"
    (bool, default true).  Malformed input is rejected with the offending
    position in the message; so is an object that repeats a key, since the
    file then does not say which value holds, and a key the schema does not
    name, since a misspelt "observed" would silently mean true.
    """
    try:
        if hasattr(source, "read"):
            origin = getattr(source, "name", "<graph>")
            text = source.read()
        else:
            origin = str(source)
            text = Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFileError(
            f"{origin}: byte 0x{exc.object[exc.start]:02x} at offset {exc.start} "
            "is not valid UTF-8"
        ) from None
    repeated = []

    def pairs_hook(pairs):
        obj = dict(pairs)
        if len(obj) == len(pairs):
            return obj
        seen = set()
        obj = _Repeated(obj)
        obj.key = next(k for k, _ in pairs if k in seen or seen.add(k))
        repeated.append(obj)
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=pairs_hook)
    except json.JSONDecodeError as exc:
        raise GraphFileError(
            f"{origin}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:  # nested too deep, or a huge integer
        raise GraphFileError(f"{origin}: unreadable JSON: {exc}") from None
    if repeated:
        where, key = _first_repeated(doc)
        key = json.dumps(key, ensure_ascii=False)
        raise GraphFileError(f"{origin}: {where + ': ' if where else ''}key {key} is repeated")
    if not isinstance(doc, dict):
        raise GraphFileError(f"{origin}: top level must be an object")
    extra = next((k for k in doc if k not in ("nodes", "edges")), None)
    if extra is not None:
        raise GraphFileError(f"{origin}: unknown key {json.dumps(extra, ensure_ascii=False)}")

    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list):
        raise GraphFileError(f'{origin}: "nodes" must be an array')
    nodes = []
    for i, entry in enumerate(raw_nodes):
        where = f"{origin}: nodes[{i}]"
        if isinstance(entry, str):
            nodes.append((entry, True))
            continue
        if not isinstance(entry, dict):
            raise GraphFileError(f"{where}: expected an object or a string")
        extra = next((k for k in entry if k not in ("name", "observed")), None)
        if extra is not None:
            raise GraphFileError(f"{where}: unknown key {json.dumps(extra, ensure_ascii=False)}")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise GraphFileError(f'{where}: "name" must be a non-empty string')
        obs = entry.get("observed", True)
        if not isinstance(obs, bool):
            raise GraphFileError(f'{where}: "observed" must be a boolean')
        nodes.append((name, obs))

    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise GraphFileError(f'{origin}: "edges" must be an array')
    edges = []
    for i, entry in enumerate(raw_edges):
        where = f"{origin}: edges[{i}]"
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(e, str) for e in entry)
        ):
            raise GraphFileError(f"{where}: expected a [parent, child] string pair")
        edges.append((entry[0], entry[1]))

    return validate_dag(nodes, edges)
