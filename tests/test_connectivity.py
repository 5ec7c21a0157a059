"""Connectivity verifiers, domination, characterizations, certificates.

The Petersen and C6 values asserted here were derived with the
separator-enumeration brute force in brutes.py and then frozen.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kmcds import (
    Certificate,
    ConnectivityViolation,
    Graph,
    SplitFlowNetwork,
    attach_root,
    build_certificate,
    check_certificate,
    domination_counts,
    find_k_connectivity_violation,
    is_k_connected,
)
from kmcds.rooted import find_infeasible_terminal
from kmcds.errors import InfeasibleError

from brutes import (
    AllPairCertificate,
    allpair_build_certificate,
    allpair_certificate_is_sound,
    allpair_find_k_connectivity_violation,
    allpair_is_k_connected,
    brute_is_k_connected,
    brute_pair_connectivity,
    check_cut_characterization,
    check_subpartition_characterization,
    is_k_T_connected,
    local_connectivity,
    source_schedule_violation,
    without_edges,
)
from toolbox import (
    complete_graph,
    cycle_graph,
    inst,
    path_graph,
    petersen,
    random_graph,
    root_problem,
    star_graph,
)


def test_local_connectivity_named_values():
    assert local_connectivity(complete_graph(4), 1, 3, 10) == 3
    assert local_connectivity(cycle_graph(5), 0, 2, 10) == 2
    g = petersen()
    for u, v in [(0, 1), (0, 7), (3, 9)]:
        assert local_connectivity(g, u, v, 10) == 3


def test_local_connectivity_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        local_connectivity(path_graph(3), 1, 1, 2)


def test_is_k_connected_named_values():
    assert is_k_connected(cycle_graph(5), 2)
    assert not is_k_connected(cycle_graph(5), 3)
    for k in (1, 2, 3, 4):
        assert is_k_connected(complete_graph(k + 1), k)
    assert is_k_connected(petersen(), 3)
    assert not is_k_connected(petersen(), 4)


def test_small_graphs_are_never_k_connected():
    # k-connectivity needs more than k nodes, K_k included
    assert not is_k_connected(complete_graph(3), 3)
    assert not is_k_connected(Graph([0], []), 1)


@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 3))
def test_is_k_connected_matches_brute_force(seed, n, k):
    g = random_graph(random.Random(seed), n, 0.5)
    assert is_k_connected(g, k) == brute_is_k_connected(g, k)


def _shaped_graph(rng: random.Random, k: int, shape: str) -> Graph:
    """A graph on at most 14 sparse, non-contiguous ids, of the named shape."""
    if shape == "complete":
        n = rng.randint(1, k + 1)
    else:
        n = rng.randint(0 if shape == "random" else k + 1, 14)
    ids = rng.sample(range(60), n)
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    if shape == "complete":
        return Graph(ids, pairs)
    p = rng.choice((0.5, 0.8, 0.95, 1.0))
    if shape in ("disconnected", "glued"):
        # two blocks with no edge between them; glued blocks share a few
        # nodes and a few cross edges, fewer than k in all
        cut = n // 2 if shape == "glued" else rng.randint(1, n - 1)
        shared = set(ids[cut:cut + rng.randint(0, k - 1)]) if shape == "glued" else set()
        left = set(ids[:cut]) | shared
        cross = [(u, v) for u, v in pairs if u not in shared and v not in shared
                 and (u in left) != (v in left)]
        pairs = [e for e in pairs if e not in cross]
        if shape == "glued":
            p = 1.0
            pairs += rng.sample(cross, min(len(cross), rng.randint(0, k - 1 - len(shared))))
    edges = [e for e in pairs if rng.random() < p]
    if shape == "low-degree" and ids:
        v = rng.choice(ids)
        touching = [e for e in edges if v in e]
        keep = set(rng.sample(touching, min(len(touching), rng.randint(0, k - 1))))
        edges = [e for e in edges if v not in e or e in keep]
    return Graph(ids, edges)


@settings(max_examples=400)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.sampled_from(("random", "disconnected", "glued", "low-degree", "complete")),
)
def test_kernel_matches_allpair_reference(seed, k, shape):
    g = _shaped_graph(random.Random(seed), k, shape)
    expected = allpair_is_k_connected(g, k)
    assert is_k_connected(g, k) == expected
    found = find_k_connectivity_violation(g, k)
    reference = allpair_find_k_connectivity_violation(g, k)
    assert (found is None) == (reference is None) == expected
    # keeping paths changes no verdict and no witness
    kept = {}
    assert find_k_connectivity_violation(g, k, kept) == found
    if found is None:
        assert len(kept) == k * (k - 1) // 2 + g.n - k
        return
    assert found.too_small == reference.too_small == (g.n <= k)
    if found.too_small:
        return
    assert found.value == len(found.separator) + found.direct_edge < k
    rest = g.induced(set(g.nodes) - set(found.separator))
    if found.direct_edge:
        rest = without_edges(rest, [found.pair])
    assert brute_pair_connectivity(rest, *found.pair) == 0


def test_kernel_on_one_masked_network_matches_fresh_induced_graphs():
    # members given on one shared network, on a network over G[members]
    # plus some other nodes, or with no network read as G[members] on a
    # fresh one: same witness, same paths, and the shared network's masks
    # come back
    kinds = set()

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def check(seed, k):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice((0.3, 0.6, 0.9)))
        net = SplitFlowNetwork(g)
        first = None
        for _ in range(5):
            size = rng.randint(0, min(k, n)) if rng.random() < 0.25 else rng.randint(0, n)
            members = frozenset(rng.sample(g.nodes, size))
            sub = g.induced(members)
            paths, fresh_paths = ({}, {}) if rng.random() < 0.5 else (None, None)
            found = find_k_connectivity_violation(sub, k, fresh_paths)
            for _ in range(2):  # a second call with the same members adds no arc
                arcs = len(net._to)
                kept = {} if paths is not None else None
                assert find_k_connectivity_violation(
                    g, k, kept, members=members, net=net
                ) == found
                assert kept == fresh_paths
                if first is None:
                    first = list(net._cap0)
                assert net._cap0 == first + [0] * (len(net._cap0) - len(first))
            assert len(net._to) == arcs
            wider = members | set(rng.sample(g.nodes, rng.randint(0, n)))
            for other in (SplitFlowNetwork(g.induced(wider)), None):
                kept = {} if paths is not None else None
                assert find_k_connectivity_violation(
                    g, k, kept, members=members, net=other
                ) == found
                assert kept == fresh_paths
            if found is None or found.too_small:
                kinds.add("connected" if found is None else "too small")
            elif any(len(sub.adj[v]) < k for v in sub.nodes):
                kinds.add("low degree")
            else:
                kinds.add("flow")

    check()
    assert kinds == {"connected", "too small", "low degree", "flow"}


def _glued_blocks(rng: random.Random, k: int) -> Graph:
    """Two dense blocks on at most 14 ids that share a separator of at most k nodes.

    Half the time the first block and the separator take the smallest ids,
    so the first k nodes sit together and a short separator is found by a
    later node's flow to the super-sink, not by a pair flow.
    """
    a, b, s = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, k)
    ids = rng.sample(range(40), a + s + b)
    if rng.random() < 0.5:
        ids.sort()
    left, sep, right = ids[:a], ids[a:a + s], ids[a + s:]
    p = rng.choice((0.8, 0.95, 1.0))
    edges = sorted({(u, v) for block in (left + sep, sep + right)
                    for i, u in enumerate(block) for v in block[i + 1:]})
    return Graph(ids, [e for e in edges if rng.random() < p])


def test_kernel_matches_source_schedule_reference(monkeypatch):
    # the super-sink kernel against the super-source loop it turned around:
    # same witness on every graph, through the failure branch often enough
    calls = []
    sink_side = SplitFlowNetwork.sink_side

    def counted(self):
        calls.append(self._ends)
        return sink_side(self)

    monkeypatch.setattr(SplitFlowNetwork, "sink_side", counted)
    failed_later = []

    @settings(max_examples=400)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.sampled_from(("random", "glued", "low-degree", "blocks")),
    )
    def check(seed, k, shape):
        rng = random.Random(seed)
        g = _glued_blocks(rng, k) if shape == "blocks" else _shaped_graph(rng, k, shape)
        before = len(calls)
        reference = source_schedule_violation(g, k)
        assert find_k_connectivity_violation(g, k) == reference
        kept = {}
        assert find_k_connectivity_violation(g, k, kept) == reference
        if len(calls) > before:
            failed_later.append(seed)
        if reference is None:
            # instances take ids 0..n-1: relabel in order, which keeps the schedule
            rank = {v: i for i, v in enumerate(g.nodes)}
            dense = Graph(range(g.n), [(rank[u], rank[v]) for u, v in g.edges])
            cert = build_certificate(dense, dense.nodes, k, k)
            assert check_certificate(inst(dense, k, k), cert) == []

    check()
    assert len(failed_later) >= 50


def test_violation_witness_is_checkable():
    g = cycle_graph(6)
    v = find_k_connectivity_violation(g, 3)
    assert v is not None and not v.too_small
    assert v.value < 3
    trimmed = g.induced(set(g.nodes) - set(v.separator))
    if v.direct_edge:
        trimmed = without_edges(trimmed, [v.pair])
    assert brute_pair_connectivity(trimmed, *v.pair) == 0 or v.direct_edge
    assert find_k_connectivity_violation(g, 2) is None


def test_violation_witness_of_each_kernel_branch():
    # k = 1: the first node and the first node it cannot reach
    g = Graph([3, 5, 8, 9], [(3, 9), (5, 8)])
    assert find_k_connectivity_violation(g, 1) == ConnectivityViolation(
        (3, 5), (), False
    )
    # k = 1 keeping paths runs the schedule, which finds the search's witness;
    # the isolated node 3 is not taken for a degree witness
    g = Graph(range(5), [(0, 4), (1, 2)])
    assert find_k_connectivity_violation(g, 1, {}) == ConnectivityViolation(
        (0, 1), (), False
    ) == find_k_connectivity_violation(g, 1)
    # degree below k: the node, its first non-neighbour, its neighbourhood
    g = Graph(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (3, 4)])
    assert find_k_connectivity_violation(g, 2) == ConnectivityViolation(
        (0, 4), (3,), False
    )
    # bowtie: node 3 fails its flow to the super-sink on {0, 1, 2}
    g = Graph(range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert find_k_connectivity_violation(g, 2) == ConnectivityViolation(
        (0, 3), (2,), False
    )
    # two K4s tied by the edges 0-1 and 2-5: the first pair needs its edge cut
    k4s = [(a, b) for block in ((0, 2, 3, 4), (1, 5, 6, 7))
           for i, a in enumerate(block) for b in block[i + 1:]]
    g = Graph(range(8), k4s + [(0, 1), (2, 5)])
    assert find_k_connectivity_violation(g, 3) == ConnectivityViolation(
        (0, 1), (2,), True
    )


def test_violation_on_tiny_graph_is_flagged():
    v = find_k_connectivity_violation(complete_graph(3), 3)
    assert v is not None and v.too_small


def test_too_small_witness_describes_itself():
    # a too-small witness has no pair, so its sentence names the shortage
    v = find_k_connectivity_violation(Graph([0, 1], [(0, 1)]), 2)
    assert v is not None and v.pair is None
    assert v.describe("nodes") == "too few nodes to be k-connected"
    assert v.describe("members") == "too few members to be k-connected"


def test_is_k_T_connected_named_values():
    assert is_k_T_connected(cycle_graph(5), [0, 2], 2)
    assert not is_k_T_connected(path_graph(4), [0, 3], 2)
    assert is_k_T_connected(cycle_graph(6), [0, 2, 4], 2)  # frozen from brute force
    with pytest.raises(ValueError):
        is_k_T_connected(path_graph(3), [], 1)


def test_is_k_in_connected_to_root_named_values():
    g_r, r = attach_root(cycle_graph(5), [0, 2], 2)
    assert find_infeasible_terminal(root_problem(g_r, r, 2), ()) is None

    g_r, r = attach_root(path_graph(4), [0], 1)
    assert find_infeasible_terminal(root_problem(g_r, r, 1), ()) is None
    assert find_infeasible_terminal(root_problem(g_r, r, 2), ()) == 0

    # C6 plus a degree-3 root on alternating nodes (attach_root pins the
    # attachment size to k, so build this one by hand)
    c6 = cycle_graph(6)
    g_r = Graph(range(7), list(c6.edges) + [(0, 6), (2, 6), (4, 6)])
    assert find_infeasible_terminal(root_problem(g_r, 6, 2), ()) is None


def test_is_m_dominating_star_and_vacuous():
    g = star_graph(5)
    assert domination_counts(g, {0}) == {v: 1 for v in range(1, 6)}
    assert domination_counts(g, {1, 2}) == {0: 2, 3: 0, 4: 0, 5: 0}
    # a set holding every node leaves nothing to dominate
    assert domination_counts(g, g.nodes) == {}


def test_cut_characterization_named_values():
    g_r, _ = attach_root(complete_graph(4), [0, 1], 2)
    assert check_cut_characterization(g_r, [0, 1], [2, 3], [0, 1], 2)

    g_r, _ = attach_root(path_graph(3), [0], 1)
    assert check_cut_characterization(g_r, [0, 1, 2], [], [0], 1)

    # detached node in S violates the cut condition with A = {3}
    g = Graph([0, 1, 2, 3], [(0, 1), (1, 2)])
    g_r, _ = attach_root(g, [0], 1)
    assert not check_cut_characterization(g_r, [0, 1, 2], [3], [0], 1)


def test_cut_characterization_input_errors():
    g_r, _ = attach_root(path_graph(3), [0], 1)
    with pytest.raises(ValueError):
        check_cut_characterization(g_r, [0, 1], [], [0], 1)  # node 2 unaccounted
    with pytest.raises(ValueError):
        check_cut_characterization(g_r, [0, 1, 2], [], [9], 1)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_cut_characterization_agrees_with_flow(seed, k):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 8), 0.5)
    nodes = list(g.nodes)
    t_count = rng.randint(k, len(nodes)) if len(nodes) >= k else len(nodes)
    terminals = nodes[:t_count]
    selected = nodes[t_count:]
    if len(terminals) < k:
        return
    attachment = terminals[:k]
    g_r, r = attach_root(g, attachment, k)
    by_flow = find_infeasible_terminal(root_problem(g_r, r, k), ()) is None
    assert check_cut_characterization(g_r, terminals, selected, attachment, k) == by_flow


def test_subpartition_characterization_named_values():
    assert check_subpartition_characterization(cycle_graph(5), 2)
    assert not check_subpartition_characterization(path_graph(4), 2)
    assert check_subpartition_characterization(petersen(), 3)
    with pytest.raises(ValueError):
        check_subpartition_characterization(complete_graph(13), 1)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_subpartition_agrees_with_is_k_connected(seed, k):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(k + 1, 8), 0.5)
    if g.n <= k:
        return
    assert check_subpartition_characterization(g, k) == is_k_connected(g, k)


def test_certificate_round_trip_and_tamper_detection():
    # the all-pair reference certificate: k paths for each of C(10, 2) pairs
    g = petersen()
    cert = allpair_build_certificate(g, g.nodes, 3, 3)
    assert allpair_certificate_is_sound(cert, g)
    assert cert.domination_counts == {}
    assert len(cert.witnesses) == 45

    # tampering with a witness path must be caught
    (pair, paths), *_ = list(cert.witnesses.items())
    broken = dict(cert.witnesses)
    broken[pair] = paths[:-1] + ((paths[-1][0], paths[-1][-1]),)
    bad = AllPairCertificate(cert.k, cert.m, cert.members, cert.domination_counts, broken)
    assert not allpair_certificate_is_sound(bad, g)


def test_certificate_refuses_infeasible_sets():
    g = star_graph(5)
    with pytest.raises(InfeasibleError):
        build_certificate(g, {1, 2}, 1, 1)  # leaves dominate nothing
    with pytest.raises(InfeasibleError):
        build_certificate(g, {0}, 1, 1)  # too small to be 1-connected


def test_certificate_without_witnesses():
    # the kernel alone decides; the empty certificate proves nothing by itself
    cert = build_certificate(cycle_graph(5), [0, 1, 2], 1, 1, with_witnesses=False)
    assert cert.pairs == {} and cert.fans == {}
    assert check_certificate(inst(cycle_graph(5), 1, 1), cert) == [
        "no fan for members [1, 2]"
    ]
    with pytest.raises(InfeasibleError, match="separates 0 from 2"):
        build_certificate(cycle_graph(5), [0, 1, 2], 2, 1, with_witnesses=False)


def test_certificate_refusal_names_the_kernel_witness():
    for with_witnesses in (True, False):
        with pytest.raises(InfeasibleError, match=r"^removing members \[1\] separates 0 from 2$"):
            build_certificate(cycle_graph(5), [0, 1, 2], 2, 1, with_witnesses)
        # k = 1 with paths kept runs the schedule, not the search: same witness
        with pytest.raises(InfeasibleError, match=r"^removing members \[\] separates 0 from 3$"):
            build_certificate(path_graph(5), [0, 1, 3, 4], 1, 1, with_witnesses)
        with pytest.raises(InfeasibleError, match="a k-connected set needs more than k nodes"):
            build_certificate(complete_graph(4), [0, 1, 2], 3, 1, with_witnesses)


def test_k1_certificate_keeps_its_fans():
    g = path_graph(5)
    cert = build_certificate(g, g.nodes, 1, 1)
    assert cert.pairs == {}
    assert cert.fans == {1: ((1, 0),), 2: ((2, 1),), 3: ((3, 2),), 4: ((4, 3),)}
    assert check_certificate(inst(g, 1, 1), cert) == []


def test_petersen_certificate_is_on_even_schedule(monkeypatch):
    flows = []
    max_flow = SplitFlowNetwork.max_flow

    def counted(self, s, t, cap):
        flows.append((s, t))
        return max_flow(self, s, t, cap)

    monkeypatch.setattr(SplitFlowNetwork, "max_flow", counted)
    g = petersen()
    cert = build_certificate(g, g.nodes, 3, 3)
    # C(3, 2) pair flows, then one flow from each later member to the super-sink
    assert flows == [(0, 1), (0, 2), (1, 2)] + [(v, SplitFlowNetwork.SINK) for v in range(3, 10)]
    assert sorted(cert.pairs) == [(0, 1), (0, 2), (1, 2)]
    assert sorted(cert.fans) == [3, 4, 5, 6, 7, 8, 9]
    for v, paths in cert.fans.items():
        assert all(p[0] == v and p[-1] < v for p in paths)
    assert check_certificate(inst(g, 3, 3), cert) == []


def _certificate_case(rng: random.Random, k: int, shape: str):
    """An instance on at most 12 nodes and a member set with non-contiguous ids.

    Members are a random sample of the nodes; outside nodes see most
    members, so m-domination often holds and connectivity decides.
    """
    n = rng.randint(1, 12) if rng.random() < 0.2 else rng.randint(k + 2, 12)
    members = sorted(rng.sample(range(n), rng.randint(max(1, n - 4), n)))
    outside = [v for v in range(n) if v not in members]
    p = rng.choice((0.5, 0.8, 0.95, 1.0))
    inner = [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]
    if shape == "glued" and len(members) > 1:
        # two blocks joined by fewer than k cross edges
        left = set(members[: len(members) // 2])
        cross = [(u, v) for u, v in inner if (u in left) != (v in left)]
        inner = [e for e in inner if e not in cross] + rng.sample(
            cross, min(len(cross), rng.randint(0, k - 1))
        )
        p = 1.0
    edges = [e for e in inner if rng.random() < p]
    if shape == "low-degree" and members:
        v = rng.choice(members)
        touching = [e for e in edges if v in e]
        keep = set(rng.sample(touching, min(len(touching), rng.randint(0, k - 1))))
        edges = [e for e in edges if v not in e or e in keep]
    edges += [(min(u, w), max(u, w)) for u in outside for w in members if rng.random() < 0.97]
    return inst(Graph(range(n), edges), k, k), members


@settings(max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.sampled_from(("random", "glued", "low-degree")),
)
def test_fan_certificate_matches_allpair_reference(seed, k, shape):
    instance, members = _certificate_case(random.Random(seed), k, shape)
    g, m = instance.graph, instance.m

    def built(builder, *extra):
        try:
            return builder(g, members, k, m, *extra)
        except InfeasibleError:
            return None

    reference = built(allpair_build_certificate)
    cert = built(build_certificate)
    assert (cert is None) == (reference is None)
    assert (built(build_certificate, False) is None) == (reference is None)
    if cert is None:
        return
    assert check_certificate(instance, cert) == []
    assert len(cert.pairs) == k * (k - 1) // 2
    assert len(cert.fans) == len(members) - k
    # dropping any one path is caught
    for v, paths in cert.fans.items():
        fewer = Certificate(k, m, cert.members, cert.domination_counts, cert.pairs,
                            {**cert.fans, v: paths[1:]})
        assert f"fan of {v}: {k - 1} paths, need {k}" in check_certificate(instance, fewer)


def _k6_case():
    """K6 on nodes 1..6 plus node 0, adjacent to all of them, outside the set.

    Every sequence of distinct nodes in 1..6 is a path of G[S], so a tamper
    breaks exactly the rule it aims at.
    """
    members = range(1, 7)
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    instance = inst(Graph(range(7), edges), 3, 3)
    return instance, build_certificate(instance.graph, members, 3, 3)


def _with(cert: Certificate, pairs=None, fans=None, members=None) -> Certificate:
    return Certificate(
        cert.k, cert.m, cert.members if members is None else members,
        cert.domination_counts, {**cert.pairs, **(pairs or {})}, {**cert.fans, **(fans or {})},
    )


_TAMPERS = {
    # name: (tamper, a problem the checker must name)
    "a path dropped": (
        lambda c: _with(c, fans={6: c.fans[6][:2]}),
        "fan of 6: 2 paths, need 3",
    ),
    "an interior node reused": (
        lambda c: _with(c, pairs={(1, 2): ((1, 2), (1, 3, 2), (1, 4, 3, 2))}),
        "pair 1-2: node 3 is on two paths",
    ),
    "two fan paths through one node": (
        lambda c: _with(c, fans={6: ((6, 1), (6, 3, 2), (6, 3, 4))}),
        "fan of 6: node 3 is on two paths",
    ),
    "two fan paths ending at one node": (
        lambda c: _with(c, fans={6: ((6, 1), (6, 2), (6, 5, 2))}),
        "fan of 6: 2 paths end at 2",
    ),
    "a fan ending at a later member": (
        lambda c: _with(c, fans={4: ((4, 1), (4, 2), (4, 5))}),
        "fan of 4: a path ends at 5, which is not an earlier member",
    ),
    "an edge outside G[S]": (
        lambda c: _with(c, fans={6: ((6, 1), (6, 2), (6, 0, 3))}),
        "fan of 6: path 6-0-3 uses edge 6-0 outside G[S]",
    ),
    "a member missing from the order": (
        lambda c: _with(c, members=(1, 2, 3, 4, 6)),
        "fan for 5, which is not a member after the first k",
    ),
    "a one-node path": (
        lambda c: _with(c, fans={6: ((6,), (6, 2), (6, 3))}),
        "fan of 6: path 6 has fewer than two nodes",
    ),
    "a path from another node": (
        lambda c: _with(c, fans={6: ((5, 1), (6, 2), (6, 3))}),
        "fan of 6: path 5-1 does not start at 6",
    ),
    "a path through one node twice": (
        lambda c: _with(c, fans={6: ((6, 1), (6, 2), (6, 4, 5, 4, 3))}),
        "fan of 6: path 6-4-5-4-3 is not simple",
    ),
    "members out of order": (
        lambda c: _with(c, members=(2, 1, 3, 4, 5, 6)),
        "members are not sorted and distinct",
    ),
    "a bundle for a later pair": (
        lambda c: _with(c, pairs={(4, 5): ((4, 5), (4, 1, 5), (4, 2, 5))}),
        "pair bundle for (4, 5), which is not a pair of the first k members",
    ),
    "a bundle path ending elsewhere": (
        lambda c: _with(c, pairs={(1, 2): ((1, 2), (1, 3, 2), (1, 4, 5))}),
        "pair 1-2: a path does not end at 2",
    ),
    "a bundle path given twice": (
        lambda c: _with(c, pairs={(1, 2): ((1, 2), (1, 2), (1, 3, 2))}),
        "pair 1-2: a path appears twice",
    ),
}


@pytest.mark.parametrize("name", sorted(_TAMPERS))
def test_checker_rejects_each_tamper(name):
    instance, cert = _k6_case()
    assert check_certificate(instance, cert) == []
    tamper, problem = _TAMPERS[name]
    assert problem in check_certificate(instance, tamper(cert))


def test_checker_closes_the_soundness_gaps():
    # the path 0-1-2 with k = 2 and no witnesses at all
    path = inst(path_graph(3), 2, 2)
    empty = Certificate(2, 2, (0, 1, 2), {}, {}, {})
    assert check_certificate(path, empty) == [
        "no pair bundle for members 0 and 1",
        "no fan for members [2]",
    ]
    g = complete_graph(5)
    cert = build_certificate(g, g.nodes, 2, 2)
    assert check_certificate(inst(g, 2, 2), cert) == []
    # k and m must be the instance's
    assert "certificate k is 2, the instance's is 3" in check_certificate(inst(g, 3, 3), cert)
    assert "certificate m is 2, the instance's is 3" in check_certificate(inst(g, 2, 3), cert)
    # |S| <= k
    small = Certificate(2, 2, (0, 1), {2: 2, 3: 2, 4: 2}, {(0, 1): ((0, 1),)}, {})
    assert "2 members cannot be 2-connected, need more than 2" in check_certificate(
        inst(g, 2, 2), small
    )
    # a member id the graph does not have
    ghost = Certificate(2, 2, (0, 1, 2, 3, 4, 99), {}, cert.pairs, cert.fans)
    assert check_certificate(inst(g, 2, 2), ghost) == [
        "member 99 is not a node of the graph"
    ]
    # K4 on 1..4 and node 0 seeing only 1 and 2: a sound m = 2 proof restated at m = 3
    g = Graph(range(5), [(0, 1), (0, 2)] + [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    cert = build_certificate(g, range(1, 5), 2, 2)
    assert check_certificate(inst(g, 2, 2), cert) == []
    restated = Certificate(2, 3, cert.members, cert.domination_counts, cert.pairs, cert.fans)
    assert check_certificate(inst(g, 2, 3), restated) == [
        "node 0 has 2 member neighbors, need 3"
    ]
