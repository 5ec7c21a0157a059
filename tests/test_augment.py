"""Forest augmentation and disjoint path purchases."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import kmcds.solver as solver_mod
from kmcds import (
    Graph,
    RootedProblem,
    SolverConfig,
    SplitFlowNetwork,
    attach_root,
    find_k_connectivity_violation,
    gen_gnp,
    gen_unit_disk,
    is_k_connected,
    minimal_augmenting_forest,
    precheck,
    solve_general,
)
from kmcds.errors import InfeasibleError, InvariantViolationError
from kmcds.augment import _is_forest
from kmcds.rooted import flow_union_witnessed

from brutes import (
    brute_min_pair_pathset,
    clique_suffices,
    min_weight_k_paths,
    rebuilt_augmenting_forest,
)
from toolbox import complete_graph, random_graph, two_triangles_bridged, with_edges


def _peel(h, attachment, k, members=None):
    """The peel on a fresh network over h, every node a member unless ``members`` says."""
    members = h.nodes if members is None else members
    return minimal_augmenting_forest(h, members, attachment, k, SplitFlowNetwork(h))


def _masks_restored(net, before):
    """Every arc present before the peel has its mask back, and every joined arc is closed."""
    return net._cap0[: len(before)] == before and not any(net._cap0[len(before):])


def test_bridged_triangles_need_one_virtual_edge():
    h = two_triangles_bridged()
    j = _peel(h, [0, 5], 2)
    assert j == ((0, 5),)
    assert is_k_connected(with_edges(h, j), 2)


def test_complete_graph_needs_nothing():
    j = _peel(complete_graph(5), [0, 1, 2], 3)
    assert j == ()


def test_every_kept_edge_is_load_bearing():
    h = two_triangles_bridged()
    att = [0, 2, 3, 5]
    j = _peel(h, att, 2)
    assert _is_forest(att, j)
    assert len(j) <= len(att) - 1
    for e in j:
        rest = [f for f in j if f != e]
        assert not is_k_connected(with_edges(h, rest), 2)


def test_only_missing_edges_are_candidates():
    h = Graph(range(4), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])  # K4 minus 0-1
    j = _peel(h, [0, 1, 2], 3)
    assert j == ((0, 1),)


def test_attachment_must_exist():
    with pytest.raises(ValueError, match=r"attachment nodes \[7\] are not members"):
        _peel(complete_graph(3), [0, 7], 1)
    with pytest.raises(ValueError, match=r"attachment nodes \[2\] are not members"):
        _peel(complete_graph(3), [0, 2], 1, members=[0, 1])


@given(st.integers(0, 2**32 - 1))
def test_forest_invariants_hold_on_random_graphs(seed):
    rng = random.Random(seed)
    h = random_graph(rng, rng.randint(4, 9), 0.7)
    k = rng.randint(1, 2)
    members = sorted(rng.sample(h.nodes, rng.randint(h.n - 2, h.n)))
    att = members[: rng.randint(2, min(4, len(members)))]
    core = h.induced(members)
    if not clique_suffices(core, att, k):
        return  # outside the precondition the peel states
    net = SplitFlowNetwork(h)
    before = list(net._cap0)
    j = minimal_augmenting_forest(h, members, att, k, net)
    assert _masks_restored(net, before)
    assert _is_forest(att, j)
    assert len(j) <= max(len(att) - 1, 0)
    assert all(not h.has_edge(*e) for e in j)
    assert is_k_connected(with_edges(core, j), k)
    for e in j:
        assert not is_k_connected(with_edges(core, [f for f in j if f != e]), k)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_peel_on_one_network_matches_rebuilt_reference(seed, k):
    rng = random.Random(seed)
    h = random_graph(rng, rng.randint(3, 11), rng.choice((0.3, 0.5, 0.7, 0.9)))
    members = rng.sample(h.nodes, rng.randint(min(k + 1, h.n), h.n))
    att = rng.sample(members, rng.randint(min(k, len(members)), min(k + 3, len(members))))
    core = h.induced(members)
    if not clique_suffices(core, att, k):
        return  # outside the precondition the peel states
    if h.n >= k and rng.random() < 0.5:
        # the solver's network: a virtual root, closed, attached to k nodes
        g_r, root = attach_root(h, rng.sample(h.nodes, k), k)
        net = SplitFlowNetwork(g_r)
        net.set_node_open(root, False)
    else:
        net = SplitFlowNetwork(h)
    before = list(net._cap0)

    def forest(peel, *args):
        # both raise alike when the minimal set is not a forest
        try:
            return peel(*args)
        except InvariantViolationError:
            return None

    want = forest(rebuilt_augmenting_forest, core, att, k)
    assert forest(minimal_augmenting_forest, h, members, att, k, net) == want
    assert _masks_restored(net, before)
    # a second peel reopens the arcs the first one joined
    assert forest(minimal_augmenting_forest, h, members, att, k, net) == want
    assert _masks_restored(net, before)


def test_peel_builds_no_graph_and_no_network(monkeypatch):
    built = []
    real_graph, real_net = Graph.__init__, SplitFlowNetwork.__init__

    def graph_init(self, *args, **kwargs):
        built.append("graph")
        real_graph(self, *args, **kwargs)

    def net_init(self, graph):
        built.append("network")
        real_net(self, graph)

    h = two_triangles_bridged()
    net = SplitFlowNetwork(h)
    monkeypatch.setattr(Graph, "__init__", graph_init)
    monkeypatch.setattr(SplitFlowNetwork, "__init__", net_init)
    # the clique on the attachment adds 0-3, 0-5 and 2-5; the peel keeps 0-5
    assert minimal_augmenting_forest(h, h.nodes, [0, 2, 3, 5], 2, net) == ((0, 5),)
    assert built == []


def test_every_attempt_meets_the_precondition_and_peels_as_the_reference(monkeypatch):
    # the kernel pass the peel no longer runs, on a fresh G[U] + K(R) for
    # every attempt of the solver, and the peel rebuilt one graph at a time
    real = solver_mod.minimal_augmenting_forest
    forests = []

    def checked(g, members, attachment, k, net):
        core = g.induced(members)
        fresh = with_edges(core, combinations(sorted(attachment), 2))
        assert find_k_connectivity_violation(fresh, k) is None
        forest = real(g, members, attachment, k, net)
        assert forest == rebuilt_augmenting_forest(core, attachment, k)
        forests.append(forest)
        return forest

    monkeypatch.setattr(solver_mod, "minimal_augmenting_forest", checked)
    configs = set()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(0, 1),
        st.sampled_from(((0, 3), (1, 30))),
        st.sampled_from(("flow-union", "exact")),
        st.sampled_from(("min-weight", "enumerate")),
    )
    def check(seed, k, extra_m, weights, backend, rule):
        rng = random.Random(seed)
        # the exact backend enumerates pool subsets, so it gets the smaller graphs
        n = rng.randint(k + 2, 30 if backend == "flow-union" else 14)
        if rng.random() < 0.5:
            radius = Fraction(3, 5) if k <= 2 else Fraction(7, 10)
            instance = gen_unit_disk(n, radius, weights, seed, k, k + extra_m)
        else:
            instance = gen_gnp(n, min(0.9, 0.3 + 0.12 * k), weights, seed, k, k + extra_m)
        if precheck(instance) is not None:
            return
        config = SolverConfig(
            backend=backend, attachment_rule=rule, attachment_enum_cap=6,
            collect_witnesses=False,
        )
        solve_general(instance, config)
        configs.add((backend, rule))

    check()
    assert len(configs) == 4
    assert len(forests) > 60 and any(forests)


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
