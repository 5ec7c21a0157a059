"""Forest augmentation and disjoint path purchases."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import kmcds.augment as augment_mod
from kmcds import (
    Graph,
    RootedProblem,
    is_k_connected,
    minimal_augmenting_forest,
)
from kmcds.errors import InfeasibleError, InvariantViolationError
from kmcds.augment import _is_forest
from kmcds.rooted import flow_union_witnessed

from brutes import brute_min_pair_pathset, min_weight_k_paths, rebuilt_augmenting_forest
from toolbox import complete_graph, random_graph, two_triangles_bridged


def test_bridged_triangles_need_one_virtual_edge():
    h = two_triangles_bridged()
    j = minimal_augmenting_forest(h, [0, 5], 2)
    assert j == ((0, 5),)
    assert is_k_connected(h.union_edges(j), 2)


def test_complete_graph_needs_nothing():
    j = minimal_augmenting_forest(complete_graph(5), [0, 1, 2], 3)
    assert j == ()


def test_every_kept_edge_is_load_bearing():
    h = two_triangles_bridged()
    att = [0, 2, 3, 5]
    j = minimal_augmenting_forest(h, att, 2)
    assert _is_forest(att, j)
    assert len(j) <= len(att) - 1
    for e in j:
        rest = [f for f in j if f != e]
        assert not is_k_connected(h.union_edges(rest), 2)


def test_only_missing_edges_are_candidates():
    h = Graph(range(4), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])  # K4 minus 0-1
    j = minimal_augmenting_forest(h, [0, 1, 2], 3)
    assert j == ((0, 1),)


def test_impossible_target_is_an_upstream_bug():
    # two attachment nodes cap the clique at one extra edge; a path of 6
    # nodes plus one chord cannot become 3-connected
    h = Graph(range(6), [(i, i + 1) for i in range(5)])
    with pytest.raises(InvariantViolationError):
        minimal_augmenting_forest(h, [0, 5], 3)


def test_attachment_must_exist():
    with pytest.raises(ValueError):
        minimal_augmenting_forest(complete_graph(3), [0, 7], 1)


@given(st.integers(0, 2**32 - 1))
def test_forest_invariants_hold_on_random_graphs(seed):
    rng = random.Random(seed)
    h = random_graph(rng, rng.randint(4, 8), 0.7)
    k = rng.randint(1, 2)
    nodes = list(h.nodes)
    att = nodes[: rng.randint(2, min(4, len(nodes)))]
    try:
        j = minimal_augmenting_forest(h, att, k)
    except InvariantViolationError:
        clique = list(combinations(sorted(att), 2))
        assert not is_k_connected(h.union_edges(clique), k)
        return
    assert _is_forest(att, j)
    assert len(j) <= max(len(att) - 1, 0)
    assert all(not h.has_edge(*e) for e in j)
    assert is_k_connected(h.union_edges(j), k)
    for e in j:
        assert not is_k_connected(h.union_edges([f for f in j if f != e]), k)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_peel_on_one_network_matches_rebuilt_reference(seed, k):
    rng = random.Random(seed)
    h = random_graph(rng, rng.randint(3, 11), rng.choice((0.3, 0.5, 0.7, 0.9)))
    att = rng.sample(h.nodes, rng.randint(min(k, h.n), min(k + 3, h.n)))

    def forest(peel):
        try:
            return peel(h, att, k)
        except InvariantViolationError:
            return None

    assert forest(minimal_augmenting_forest) == forest(rebuilt_augmenting_forest)


def test_peel_builds_one_graph_and_one_network(monkeypatch):
    unions, networks = [], []
    union_edges = Graph.union_edges

    class Counted(augment_mod.SplitFlowNetwork):
        def __init__(self, graph):
            networks.append(graph.n)
            super().__init__(graph)

    def counted_union(self, extra):
        unions.append(self.n)
        return union_edges(self, extra)

    monkeypatch.setattr(augment_mod, "SplitFlowNetwork", Counted)
    monkeypatch.setattr(Graph, "union_edges", counted_union)
    h = two_triangles_bridged()
    # the clique on the attachment adds 0-3, 0-5 and 2-5; the peel keeps 0-5
    assert minimal_augmenting_forest(h, [0, 2, 3, 5], 2) == ((0, 5),)
    assert unions == [6] and networks == [6]


def _bundle(g, free, u, v, k):
    """The solver's purchase for virtual edge uv: the flow union, one terminal u, root v."""
    pool = tuple(x for x in g.nodes if x not in set(free))
    return flow_union_witnessed(RootedProblem(graph_r=g, root=v, terminals=(u,), pool=pool, k=k))[0]


def test_path_purchase_on_a_path():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)], {0: 1, 1: 5, 2: 7, 3: 1})
    bought = _bundle(g, [0, 3], 0, 3, 1)
    assert bought == {1, 2}


def test_free_interior_costs_nothing():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)], {0: 1, 1: 9, 2: 9, 3: 1})
    bought = _bundle(g, [0, 1, 2, 3], 0, 3, 2)
    assert bought == frozenset()


def test_endpoints_must_be_free():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="root can be neither terminal nor pool"):
        _bundle(g, [0], 0, 3, 1)
    with pytest.raises(ValueError, match="terminals cannot be pool nodes"):
        _bundle(g, [3], 0, 3, 1)


def test_too_few_paths_raises():
    g = Graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(InfeasibleError, match="terminal 0: only 1 of 2"):
        _bundle(g, [0, 2], 0, 2, 2)


@given(st.integers(0, 2**32 - 1))
def test_purchase_matches_brute_force_weight(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(4, 7), 0.7)
    nodes = list(g.nodes)
    u, v = nodes[0], nodes[-1]
    k = rng.randint(1, 2)
    free = {u, v}
    best = brute_min_pair_pathset(g, free, u, v, k)
    try:
        bought = _bundle(g, free, u, v, k)
    except InfeasibleError:
        assert best is None
        return
    assert best is not None
    # min-cost flow is exact for a single terminal
    assert sum(g.weights[x] for x in bought) == best[0]


def test_bundle_selects_what_the_pair_purchase_did():
    # the zero-weight branch runs the min-cost flow at once; the skip
    # branch (every pool weight above 0) first asks for k free paths
    branches = set()

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(3, 10), rng.choice((0.3, 0.5, 0.8)), max_weight=3)
        u, v = rng.sample(g.nodes, 2)
        free = {u, v} | set(rng.sample(g.nodes, rng.randint(0, g.n - 2)))
        k = rng.randint(1, 3)
        branches.add(all(g.weights[x] > 0 for x in g.nodes if x not in free))

        def purchase(buy):
            try:
                return buy(g, free, u, v, k)
            except InfeasibleError:
                return None

        assert purchase(_bundle) == purchase(min_weight_k_paths)

    check()
    assert branches == {True, False}
