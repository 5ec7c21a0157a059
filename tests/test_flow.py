"""Node-splitting flow network against definition-level brute force."""

import json
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from kmcds import (
    Graph,
    SolverConfig,
    SplitFlowNetwork,
    dump_report,
    find_k_connectivity_violation,
    gen_gnp,
    gen_unit_disk,
    solve_general,
    solve_guess_root,
    solve_unit_disk,
)
from kmcds.errors import InfeasibleError

from brutes import (
    FullScanNetwork,
    brute_min_pair_pathset,
    brute_pair_connectivity,
    edge_cost_map,
    residual_reachable,
    ssp_min_cost_flow,
    without_edges,
)
from test_golden_reports import GOLDEN, current as golden_hashes
from toolbox import complete_graph, cycle_graph, path_graph, petersen, random_graph, run_python


def _priced(g, free):
    """A network over g with every node outside ``free`` priced at its weight."""
    net = SplitFlowNetwork(g)
    for v in g.nodes:
        if v not in free:
            net.set_node_cost(v, g.weights[v])
    return net


def test_max_flow_on_named_graphs():
    assert SplitFlowNetwork(complete_graph(4)).max_flow(0, 2, 10) == 3
    assert SplitFlowNetwork(cycle_graph(5)).max_flow(0, 2, 10) == 2
    assert SplitFlowNetwork(path_graph(4)).max_flow(0, 3, 10) == 1


def test_max_flow_respects_cap():
    assert SplitFlowNetwork(complete_graph(6)).max_flow(0, 1, 2) == 2


@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
def test_max_flow_matches_separator_brute_force(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.45)
    net = SplitFlowNetwork(g)
    nodes = g.nodes
    for i in range(n):
        for j in range(i + 1, n):
            got = net.max_flow(nodes[i], nodes[j], n + 1)
            assert got == brute_pair_connectivity(g, nodes[i], nodes[j])


def test_extract_paths_are_internally_disjoint():
    g = petersen()
    net = SplitFlowNetwork(g)
    assert net.max_flow(0, 7, 3) == 3
    paths = net.extract_paths()
    assert len(paths) == 3
    interiors = set()
    for p in paths:
        assert p[0] == 0 and p[-1] == 7
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)
        inner = set(p[1:-1])
        assert len(inner) == len(p) - 2
        assert not (inner & interiors)
        interiors |= inner


def test_min_cut_separator_witness_checks_out():
    g = path_graph(5)
    net = SplitFlowNetwork(g)
    assert net.max_flow(0, 4, 2) == 1
    cut, direct = net.min_cut_separator()
    assert not direct
    assert len(cut) == 1
    trimmed = g.induced(set(g.nodes) - set(cut))
    assert brute_pair_connectivity(trimmed, 0, 4) == 0


def test_min_cut_separator_flags_direct_edge():
    # adjacent endpoints: the witness is "remove the cut AND the edge"
    g = path_graph(2)
    net = SplitFlowNetwork(g)
    assert net.max_flow(0, 1, 5) == 1
    cut, direct = net.min_cut_separator()
    assert direct and cut == []


@given(st.integers(0, 2**32 - 1))
def test_min_cost_flow_buys_the_cheapest_path_nodes(seed):
    rng = random.Random(seed)
    g = random_graph(rng, 7, 0.5)
    nodes = g.nodes
    u, v = nodes[0], nodes[-1]
    k = brute_pair_connectivity(g, u, v)
    if k == 0:
        return
    k = min(k, 3)
    free = frozenset({u, v})
    net = _priced(g, free)
    pushed, cost = net.min_cost_flow(u, v, k)
    assert pushed == k
    best = brute_min_pair_pathset(g, free, u, v, k)
    assert best is not None
    assert cost == best[0]
    bought = set(net.nodes_carrying_flow()) - free
    assert sum(g.weights[x] for x in bought) == cost


def test_edge_cost_map_prices_only_listed_endpoints():
    g = path_graph(3, weights=[5, 7, 9])
    costs = edge_cost_map(g, priced={1})
    assert costs == {(0, 1): 7, (1, 2): 7}
    both = edge_cost_map(g, priced={0, 1, 2})
    assert both == {(0, 1): 12, (1, 2): 16}


@given(st.integers(0, 2**32 - 1), st.integers(3, 9))
def test_closed_arcs_act_as_deleted_nodes_and_edges(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    s, t = g.nodes[0], g.nodes[-1]
    gone = {v for v in g.nodes[1:-1] if rng.random() < 0.3}
    cut_edges = [e for e in g.edges if rng.random() < 0.3]
    sub = without_edges(g, cut_edges).induced(set(g.nodes) - gone)
    free = {s, t}
    net = _priced(g, free)
    for v in gone:
        net.set_node_open(v, False)
    for e in cut_edges:
        net.set_edge_open(*e, False)
    value = net.max_flow(s, t, n)
    assert value == SplitFlowNetwork(sub).max_flow(s, t, n)
    assert not gone & set(net.nodes_carrying_flow())
    separator, direct = net.min_cut_separator()
    assert not gone & set(separator)
    assert len(separator) + direct == value
    rest = sub.induced(set(sub.nodes) - set(separator))
    if direct:
        rest = without_edges(rest, [(s, t)])
    assert brute_pair_connectivity(rest, s, t) == 0
    closed = {frozenset(e) for e in cut_edges}
    paths = net.extract_paths()  # consumes the flow, so after the cut reads
    assert len(paths) == value
    assert not any(frozenset(step) in closed for p in paths for step in zip(p, p[1:]))

    # a masked min-cost flow walks the paths a flow on the subgraph walks
    sub_net = _priced(sub, free)
    units = min(value, 3)
    assert net.min_cost_flow(s, t, units) == sub_net.min_cost_flow(s, t, units)
    assert net.nodes_carrying_flow() == sub_net.nodes_carrying_flow()


def test_reset_keeps_masks_until_reopened():
    g = complete_graph(5)
    net = SplitFlowNetwork(g)
    net.set_node_open(2, False)
    net.set_edge_open(4, 0, False)
    for _ in range(2):
        assert net.max_flow(0, 4, 5) == 2  # 0-1-4 and 0-3-4
        assert 2 not in net.nodes_carrying_flow()
        assert all((0, 4) != step for p in net.extract_paths() for step in zip(p, p[1:]))
    net.set_node_open(2, True)
    net.set_edge_open(0, 4, True)
    assert net.max_flow(0, 4, 5) == 4


def test_flow_is_deterministic():
    g = petersen()
    runs = []
    for _ in range(2):
        net = SplitFlowNetwork(g)
        net.max_flow(1, 8, 3)
        runs.append(net.extract_paths())
    assert runs[0] == runs[1]


@given(st.integers(0, 2**32 - 1), st.integers(3, 9))
def test_sink_arcs_leave_pair_flows_unchanged(seed, n):
    # every flow starts with nothing leaving SINK_in, and its arcs come
    # last, so a pair flow walks the paths it walks on a network without
    # the sink
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    net = SplitFlowNetwork(g)
    for v in rng.sample(g.nodes, rng.randint(1, n)):
        net.join_sink(v)
    for u, v in permutations(g.nodes, 2):
        fresh = SplitFlowNetwork(g)
        assert net.max_flow(u, v, n) == fresh.max_flow(u, v, n)
        assert net.min_cut_separator() == fresh.min_cut_separator()
        assert net.extract_paths() == fresh.extract_paths()


def test_sink_side_of_a_bowtie_after_a_short_flow():
    # two triangles sharing node 2; the sink is joined to the first one
    g = Graph(range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    net = SplitFlowNetwork(g)
    for v in (0, 1, 2):
        net.join_sink(v)
    # with no unit pushed, every node reaches the sink
    assert net.max_flow(3, SplitFlowNetwork.SINK, 0) == 0
    assert net.sink_side() == [0, 1, 2, 3, 4]
    # node 3 reaches the sink only through 2: one path, cut {2}
    assert net.max_flow(3, SplitFlowNetwork.SINK, 2) == 1
    assert net.sink_side() == [0, 1]
    assert net.extract_paths() == [(3, 2)]  # a path into SINK ends at its last graph node
    assert net.max_flow(4, SplitFlowNetwork.SINK, 3) == 1
    assert net.sink_side() == [0, 1]


@given(st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_arc_layout_fixes_every_index(seed, n):
    # the indices the network no longer stores follow from its layout
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    net = SplitFlowNetwork(g)
    for v in rng.sample(g.nodes, rng.randint(0, n)):
        net.join_sink(v)
    to = net._to
    for v in g.nodes:
        a = 2 * net.slot[v]
        assert (to[a ^ 1], to[a]) == (a, a + 1)
    assert sorted(net._edge_arcs) == list(g.edges)
    for (u, v), a in net._edge_arcs.items():
        su, sv = net.slot[u], net.slot[v]
        assert (to[a ^ 1], to[a]) == (2 * su + 1, 2 * sv)
        assert (to[(a + 2) ^ 1], to[a + 2]) == (2 * sv + 1, 2 * su)
    for x, arcs in enumerate(net._out):
        for a in arcs:
            assert to[a ^ 1] == x  # every arc leaves the node that lists it


def test_masks_kept_restores_masks_when_its_body_raises():
    g = complete_graph(5)
    net = SplitFlowNetwork(g)
    net.set_edge_open(0, 1, False)
    masks = list(net._cap0)
    with pytest.raises(RuntimeError), net.masks_kept():
        net.set_node_open(2, False)
        net.set_edge_open(3, 4, False)
        net.set_edge_open(0, 1, True)
        net.join_sink(3)
        raise RuntimeError("body failed")
    assert net._cap0[: len(masks)] == masks
    assert net._cap0[len(masks):] == [0, 0]  # the sink arc joined inside is closed
    assert net.max_flow(0, 1, 5) == 3  # through 2, 3 and 4; the edge stays closed


@given(st.integers(0, 2**32 - 1), st.integers(3, 9))
def test_every_flow_starts_from_the_masks(seed, n):
    # one network, masks toggled between flows and never a reset: each
    # flow reads as the same flow on a fresh network over the subgraph
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    net = _priced(g, frozenset())
    closed_nodes: set[int] = set()
    closed_edges: set[tuple[int, int]] = set()
    for _ in range(8):
        for v in rng.sample(g.nodes, rng.randint(0, 2)):
            net.set_node_open(v, v in closed_nodes)
            closed_nodes ^= {v}
        for e in rng.sample(g.edges, min(len(g.edges), rng.randint(0, 2))):
            net.set_edge_open(*e, e in closed_edges)
            closed_edges ^= {e}
        open_nodes = [v for v in g.nodes if v not in closed_nodes]
        if len(open_nodes) < 2:
            continue
        s, t = rng.sample(open_nodes, 2)
        fresh = _priced(without_edges(g, closed_edges).induced(open_nodes), frozenset())
        units = rng.randint(1, n)
        if rng.random() < 0.5:
            assert net.max_flow(s, t, units) == fresh.max_flow(s, t, units)
        else:
            assert net.min_cost_flow(s, t, units) == fresh.min_cost_flow(s, t, units)
        assert net.nodes_carrying_flow() == fresh.nodes_carrying_flow()
        assert net.extract_paths() == fresh.extract_paths()


@given(st.integers(0, 2**32 - 1), st.integers(3, 9))
def test_a_short_max_flow_marks_its_residual_source_side(seed, n):
    # the cut reads the failed last search's marks in place of a new search
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    net = SplitFlowNetwork(g)
    for v in rng.sample(g.nodes, rng.randint(0, n - 1)):
        net.join_sink(v)
    gone = set(rng.sample(g.nodes, rng.randint(0, 2)))
    for v in gone:
        net.set_node_open(v, False)
    cut_edges = rng.sample(g.edges, min(len(g.edges), rng.randint(0, 2)))
    for e in cut_edges:
        net.set_edge_open(*e, False)
    sub = without_edges(g, cut_edges)
    for s in g.nodes:
        for t in [v for v in g.nodes if v != s] + [SplitFlowNetwork.SINK]:
            cap = rng.randint(1, n)
            value = net.max_flow(s, t, cap)
            if value == cap:
                continue
            marked = {x for x in range(net.size) if net._seen[x] == net._token}
            assert marked == residual_reachable(net, s)
            if t != SplitFlowNetwork.SINK:
                # the cut read off those marks is a Menger witness of the value
                separator, direct = net.min_cut_separator()
                assert len(separator) + direct == value
                rest = sub.induced(set(g.nodes) - (gone - {s, t}) - set(separator))
                if direct:
                    rest = without_edges(rest, [(s, t)])
                assert brute_pair_connectivity(rest, s, t) == 0


@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 4))
def test_min_cost_flow_matches_successive_shortest_paths_from_zero(seed, n, units):
    # the zero-cost phase and the sweeps after it end at the value and cost
    # of plain successive shortest paths from the masks, on node costs 0-9
    # with many zeros, under the package's searches and the full-scan ones
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.9))
    costs = {v: rng.randint(0, 9) if rng.random() < 0.6 else 0 for v in g.nodes}
    s, t = rng.sample(g.nodes, 2)
    closed_nodes = {v for v in g.nodes if v not in (s, t) and rng.random() < 0.2}
    closed_edges = {e for e in g.edges if rng.random() < 0.2}

    def build(cls):
        net = cls(g)
        for v, c in costs.items():
            net.set_node_cost(v, c)
        for v in closed_nodes:
            net.set_node_open(v, False)
        for e in closed_edges:
            net.set_edge_open(*e, False)
        return net

    expected = ssp_min_cost_flow(build(FullScanNetwork), s, t, units)
    assert expected[0] == build(SplitFlowNetwork).max_flow(s, t, units)
    for cls in (SplitFlowNetwork, FullScanNetwork):
        net = build(cls)
        value, cost = net.min_cost_flow(s, t, units)
        assert (value, cost) == expected
        bought = set(net.nodes_carrying_flow()) - {s, t}
        assert sum(costs[v] for v in bought) == cost
        interiors: set[int] = set()
        for path in net.extract_paths():
            assert (path[0], path[-1]) == (s, t)
            inner = set(path[1:-1])
            assert len(inner) == len(path) - 2 and not inner & interiors
            assert not inner & closed_nodes
            for step in zip(path, path[1:]):
                assert g.has_edge(*step) and tuple(sorted(step)) not in closed_edges
            interiors |= inner
        assert interiors == bought


def _ends_alone(code: str) -> str:
    """Run ``code`` in a fresh interpreter under a 10 s timeout; return its output."""
    done = run_python(["-c", code], timeout=10)
    assert done.returncode == 0, done.stderr
    return done.stdout


_TIMED = """
import time
from kmcds import Graph, SplitFlowNetwork
start = time.perf_counter()
{body}
assert time.perf_counter() - start < 1, "took a second or more"
"""


def test_a_negative_node_cost_is_refused():
    # on the path 0-1-2-3, costs of -3 on nodes 1 and 2 would close a
    # residual cycle of cost -6 and the shortest-path search would not end
    body = """
net = SplitFlowNetwork(Graph(range(4), [(0, 1), (1, 2), (2, 3)]))
try:
    net.set_node_cost(1, -3)
except ValueError as exc:
    print(exc)
"""
    assert _ends_alone(_TIMED.format(body=body)) == "node cost -3 is negative\n"


def test_a_min_cost_flow_after_a_max_flow_through_a_priced_node_is_cheapest():
    # on the 4-cycle 0-1-3-2 the max-flow routes through node 1, priced 5;
    # the min-cost flow starts from the masks, not from that flow
    body = """
net = SplitFlowNetwork(Graph(range(4), [(0, 1), (1, 3), (2, 3), (0, 2)]))
net.set_node_cost(1, 5)
assert net.max_flow(0, 3, 1) == 1
print(net.min_cost_flow(0, 3, 2))
"""
    assert _ends_alone(_TIMED.format(body=body)) == "(2, 5)\n"


def _same_search_state(live, full):
    """Both networks hold the same residuals, marks and parents."""
    assert live._res == full._res
    assert live._parent == full._parent
    assert (live._seen, live._token) == (full._seen, full._token)


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_live_arc_searches_match_the_full_scan(seed, n):
    # one random run of masks, sink joins and flows on two networks: the
    # package's searches and the full-scan reference must agree on every
    # value, residual, mark and parent, and on everything read from a flow
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.9))
    costs = {v: rng.choice((0, 0, 1, 2, 3, 4, 5)) for v in g.nodes}
    nets = (SplitFlowNetwork(g), FullScanNetwork(g))
    for net in nets:
        for v, c in costs.items():
            net.set_node_cost(v, c)

    def both(call):
        got = [call(net) for net in nets]
        assert got[0] == got[1]
        _same_search_state(*nets)
        return got[0]

    def read_flow(short):
        both(lambda net: net.nodes_carrying_flow())
        both(lambda net: net.sink_side())
        if short:
            both(lambda net: net.min_cut_separator())
        if rng.random() < 0.5:
            both(lambda net: net.extract_paths())

    for _ in range(10):
        roll = rng.random()
        if roll < 0.15:
            v = rng.choice(g.nodes)
            is_open = rng.random() < 0.4
            both(lambda net: net.set_node_open(v, is_open))
        elif roll < 0.25 and g.edges:
            e = rng.choice(g.edges)
            is_open = rng.random() < 0.4
            both(lambda net: net.set_edge_open(*e, is_open))
        elif roll < 0.35:
            v = rng.choice(g.nodes)
            both(lambda net: net.join_sink(v))
        elif roll < 0.6:
            s = rng.choice(g.nodes)
            t = rng.choice([v for v in g.nodes if v != s] + [SplitFlowNetwork.SINK])
            cap = rng.randint(1, 4)
            value = both(lambda net: net.max_flow(s, t, cap))
            read_flow(value < cap)
        else:
            s, t = rng.sample(g.nodes, 2)
            units = rng.randint(1, 4)
            both(lambda net: net.min_cost_flow(s, t, units))
            read_flow(False)


def _outputs(solve, instance):
    """A kernel witness with its kept paths, and the solver's report texts."""
    paths: dict = {}
    texts = [repr((find_k_connectivity_violation(instance.graph, instance.k, paths), paths))]
    for config in (SolverConfig(), SolverConfig(final_prune=False)):
        try:
            texts.append(dump_report(solve(instance, config)))
        except InfeasibleError as exc:
            texts.append(f"infeasible: {exc}")
    return texts


def test_reports_are_byte_identical_under_the_full_scan_searches(monkeypatch):
    # the golden grid (general, guess-root with its forced fallbacks and
    # the exact backend, unit-disk, zero weights, m > k, the final prune on
    # and off, verify documents) and larger instances, with both searches
    # swapped for the full-scan reference
    larger = [(solve_general, gen_gnp(60, 0.15, (0, 9), seed, 2 + seed % 2, 3)) for seed in range(4)]
    larger += [(solve_guess_root, gen_gnp(18, 0.35, (1, 30), seed, 2, 2 + seed % 2)) for seed in range(4)]
    larger += [
        (solve_unit_disk, gen_unit_disk(40, Fraction(2, 5), (0, 9), seed, 2, 3)) for seed in range(4)
    ]
    live = [_outputs(*case) for case in larger]
    with monkeypatch.context() as patched:
        for name in ("_augment_bfs", "_augment_cheapest"):
            patched.setattr(SplitFlowNetwork, name, getattr(FullScanNetwork, name))
        pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert golden_hashes() == pinned
        assert [_outputs(*case) for case in larger] == live
