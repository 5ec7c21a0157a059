"""Rooted augmentation backends against enumeration and each other."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kmcds import (
    Graph,
    RootedProblem,
    SplitFlowNetwork,
    attach_root,
    gen_unit_disk,
    solve_rooted_nodeweight,
)
from kmcds import rooted as rooted_mod
from kmcds.errors import InfeasibleError
from kmcds.rooted import (
    BACKENDS,
    _terminal_order,
    exact_backend,
    find_infeasible_terminal,
    flow_union_witnessed,
    prune_selection,
)

from brutes import (
    _unmasked_flow_union,
    brute_rooted_opt,
    edgecost_flow_union,
    induced_find_infeasible_terminal,
    induced_prune_selection,
    induced_solve_rooted,
    induced_witnesses,
    resumed_flow_union,
    without_edges,
)
from toolbox import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
    wheel_graph,
)


def _flow_union(problem, net=None):
    return flow_union_witnessed(problem, net)[0]


def _problem(g, terminals, attachment, k):
    g_r, root = attach_root(g, attachment, k)
    pool = tuple(v for v in g.nodes if v not in set(terminals))
    return RootedProblem(
        graph_r=g_r, root=root, terminals=tuple(terminals), pool=pool, k=k
    )


def test_k5_terminals_need_no_help():
    p = _problem(complete_graph(5), [0, 1, 2], [0, 1], 2)
    for backend in ("flow-union", "exact"):
        s = solve_rooted_nodeweight(p, backend)
        assert s == frozenset()
        assert find_infeasible_terminal(p, s) is None


def test_p3_buys_the_middle_node():
    p = _problem(path_graph(3), [0, 2], [0], 1)
    for backend in ("flow-union", "exact"):
        s = solve_rooted_nodeweight(p, backend)
        assert s == {1}


def test_p3_under_edge_costs():
    # the edge-cost pricing and the node-weighted stage both buy the middle
    p = _problem(path_graph(3), [0, 2], [0], 1)
    assert edgecost_flow_union(p) == solve_rooted_nodeweight(p) == {1}


def test_all_terminals_means_empty_pool():
    g = complete_graph(4)
    p = _problem(g, list(g.nodes), [0, 1], 2)
    assert p.pool == ()
    s = solve_rooted_nodeweight(p)
    assert s == frozenset()


def test_infeasibility_names_the_starved_terminal():
    # every path from leaf 3 to the root pinches through the star center
    p = _problem(star_graph(3), [1, 2, 3], [1, 2], 2)
    with pytest.raises(InfeasibleError, match="terminal 3"):
        solve_rooted_nodeweight(p, "flow-union")
    with pytest.raises(InfeasibleError, match="terminal 3"):
        solve_rooted_nodeweight(p, "exact")


def test_wheel_flow_union_within_factor_of_exact():
    g = wheel_graph(6)
    p = _problem(g, [1, 3, 5], [1, 3, 5], 3)
    s_fu = solve_rooted_nodeweight(p, "flow-union")
    s_ex = solve_rooted_nodeweight(p, "exact")
    w = g.weights
    assert find_infeasible_terminal(p, s_fu) is None
    assert find_infeasible_terminal(p, s_ex) is None
    assert sum(w[v] for v in s_fu) <= 2 * len(p.terminals) * sum(w[v] for v in s_ex)


def test_unknown_backend_rejected():
    p = _problem(path_graph(3), [0, 2], [0], 1)
    with pytest.raises(ValueError):
        solve_rooted_nodeweight(p, "simplex")


def test_problem_validation():
    g_r, root = attach_root(path_graph(3), [0], 1)
    with pytest.raises(ValueError):
        RootedProblem(graph_r=g_r, root=root, terminals=(root,), pool=(), k=1)
    with pytest.raises(ValueError):
        RootedProblem(graph_r=g_r, root=root, terminals=(0,), pool=(0,), k=1)
    with pytest.raises(ValueError):
        RootedProblem(graph_r=g_r, root=99, terminals=(0,), pool=(), k=1)


def test_prune_drops_redundant_selection():
    # hand the pruner a deliberately bloated feasible selection
    p = _problem(path_graph(5), [0, 4], [0], 1)
    fat = frozenset({1, 2, 3})
    lean = prune_selection(p, fat, witnesses=induced_witnesses(p, fat))
    assert lean == fat  # every path node is load-bearing on a path graph

    p2 = _problem(complete_graph(5), [0, 1], [0], 1)
    fat = frozenset({2, 3, 4})
    assert prune_selection(p2, fat, witnesses=induced_witnesses(p2, fat)) == frozenset()


@given(st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_exact_backend_matches_brute_enumeration(seed, k):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(k + 1, 7), 0.6)
    nodes = list(g.nodes)
    terminals = nodes[: rng.randint(k, min(3, len(nodes)))]
    if len(terminals) < k:
        return
    p = _problem(g, terminals, terminals[:k], k)
    best = brute_rooted_opt(p.graph_r, p.root, p.terminals, p.pool, k)
    try:
        s = solve_rooted_nodeweight(p, "exact")
    except InfeasibleError:
        assert best is None
        return
    assert best is not None
    assert sum(g.weights[v] for v in s) == best[0]


@given(st.integers(0, 2**32 - 1))
def test_flow_union_feasible_and_bounded_when_exact_is(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 2)
    g = random_graph(rng, rng.randint(k + 1, 7), 0.6)
    nodes = list(g.nodes)
    terminals = nodes[: rng.randint(k, min(3, len(nodes)))]
    if len(terminals) < k:
        return
    p = _problem(g, terminals, terminals[:k], k)
    try:
        s_ex = solve_rooted_nodeweight(p, "exact")
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_rooted_nodeweight(p, "flow-union")
        return
    s_fu = solve_rooted_nodeweight(p, "flow-union")
    assert find_infeasible_terminal(p, s_fu) is None
    w = g.weights
    # per-terminal flows are individually optimal, so |T|·OPT caps the
    # union; the reported guarantee is the looser 2|T|
    assert sum(w[v] for v in s_fu) <= len(p.terminals) * sum(w[v] for v in s_ex)


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_nodeweight_stage_selects_what_the_edgecost_stage_did(seed, disk):
    # pricing edge uv at w_u + w_v over pool endpoints charges each interior
    # pool node twice, once per path edge at it, and free nodes nothing:
    # every path costs twice its node weight
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    weights = (0, rng.choice((0, 3, 9)))
    n = rng.randint(k + 2, 11)
    if disk:
        radius = Fraction(rng.randint(3, 7), 10)
        g = gen_unit_disk(n, radius, weights, seed % 10_000).graph
    else:
        g = random_graph(rng, n, rng.uniform(0.3, 0.8), max_weight=weights[1])
    terminals = rng.sample(list(g.nodes), rng.randint(k, min(n, k + 3)))
    p = _problem(g, terminals, terminals[:k], k)
    try:
        expected = edgecost_flow_union(p)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_rooted_nodeweight(p)
        return
    selected = solve_rooted_nodeweight(p)
    assert selected == expected
    assert find_infeasible_terminal(p, selected) is None


@given(st.integers(0, 2**32 - 1))
def test_edgecost_backend_is_feasible(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 2)
    g = random_graph(rng, rng.randint(k + 2, 8), 0.7)
    nodes = list(g.nodes)
    terminals = nodes[: k + 1]
    p = _problem(g, terminals, terminals[:k], k)
    try:
        s = solve_rooted_nodeweight(p)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            edgecost_flow_union(p)
        return
    assert find_infeasible_terminal(p, s) is None
    assert edgecost_flow_union(p) == s


def test_zero_weights_cost_nothing():
    g = random_graph(random.Random(3), 7, 0.5, max_weight=0)
    p = _problem(g, [0, 1], [0, 1], 2)
    try:
        s = solve_rooted_nodeweight(p, "flow-union")
    except InfeasibleError:
        return
    assert sum(g.weights[v] for v in s) == 0
    assert find_infeasible_terminal(p, s) is None


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_masked_network_matches_induced_subgraph_reference(seed, k):
    # a root whose closed edges are the guess-root shape: one network over g
    # serves the root-trimmed problem, whether the problem is built over the
    # trimmed graph or over g with the root's closed neighbours
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(k + 2, 12), rng.uniform(0.3, 0.8))
    root = rng.choice(g.nodes)
    closed = [(root, x) for x in g.adj[root] if rng.random() < 0.4]
    rest = [v for v in g.nodes if v != root]
    rng.shuffle(rest)
    n_terminals = rng.randint(1, min(4, len(rest)))
    terminals = rest[:n_terminals]
    pool = [v for v in rest[n_terminals:] if rng.random() < 0.8]
    trimmed = RootedProblem(
        graph_r=without_edges(g, closed), root=root,
        terminals=tuple(terminals), pool=tuple(pool), k=k,
    )
    over_g = RootedProblem(
        graph_r=g, root=root, terminals=tuple(terminals), pool=tuple(pool), k=k,
        closed_neighbours=frozenset(x for _, x in closed),
    )
    assert _terminal_order(over_g) == _terminal_order(trimmed)
    shared = SplitFlowNetwork(g)
    for e in closed:
        shared.set_edge_open(*e, False)
    # a network over g with every arc open: each call closes the root edges
    # its problem names and leaves every mask as it found it
    bare = SplitFlowNetwork(g)
    draws = [[v for v in pool if rng.random() < 0.5] for _ in range(4)]
    full = frozenset(pool)
    full_witnesses = induced_witnesses(trimmed, full)
    expected_prune = induced_prune_selection(trimmed, full)
    expected = {}
    for backend in ("flow-union", "exact"):
        try:
            expected[backend] = induced_solve_rooted(trimmed, backend)
        except InfeasibleError:
            expected[backend] = None

    for net, problems in ((shared, (trimmed, over_g)), (bare, (over_g,))):
        masks = list(net._cap0)
        for p in problems:
            for chosen in draws:
                assert find_infeasible_terminal(p, chosen, net) == (
                    induced_find_infeasible_terminal(trimmed, chosen)
                )
                assert find_infeasible_terminal(p, chosen) == (
                    induced_find_infeasible_terminal(trimmed, chosen)
                )
                assert net._cap0 == masks  # the check reopened the pool it closed
            if full_witnesses is not None:
                assert prune_selection(p, full, net, witnesses=full_witnesses) == expected_prune
                assert prune_selection(p, full, witnesses=full_witnesses) == expected_prune
                assert net._cap0 == masks

            for backend, select in BACKENDS.items():
                if expected[backend] is None:
                    with pytest.raises(InfeasibleError):
                        select(p, net)
                    with pytest.raises(InfeasibleError):
                        select(p)
                    with pytest.raises(InfeasibleError):
                        solve_rooted_nodeweight(p, backend, net)
                    assert net._cap0 == masks
                    continue
                selected, witnesses = select(p, net)
                # the same set and witnesses as on a network of its own
                assert select(p) == (selected, witnesses)
                assert select(trimmed, shared)[0] == selected
                assert prune_selection(p, selected, net, witnesses=witnesses) == (
                    induced_prune_selection(trimmed, selected)
                )
                assert solve_rooted_nodeweight(p, backend, net) == expected[backend]
                assert solve_rooted_nodeweight(p, backend) == expected[backend]
                assert net._cap0 == masks


def test_closed_neighbours_must_be_root_neighbours():
    g = path_graph(4)
    with pytest.raises(ValueError):
        RootedProblem(graph_r=g, root=0, terminals=(3,), pool=(1, 2), k=1,
                      closed_neighbours=frozenset({2}))


def _skip_problem(rng: random.Random, zero_in_pool: bool) -> RootedProblem:
    """A rooted problem whose pool has a zero-weight node or weighs above 0 throughout."""
    k = rng.randint(1, 3)
    n = rng.randint(k + 3, 12)
    g = random_graph(rng, n, rng.uniform(0.3, 0.8), max_weight=rng.choice((3, 30)))
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    terminals = nodes[: rng.randint(k, min(n - 2, k + 4))]
    pool = [v for v in nodes if v not in terminals]
    weights = dict(g.weights)
    for v in pool:
        weights[v] = max(weights[v], 1)
    if zero_in_pool:
        weights[rng.choice(pool)] = 0
    g = Graph(g.nodes, g.edges, weights)
    return _problem(g, terminals, terminals[:k], k)


def test_skip_and_resume_select_what_the_literal_reference_selects():
    # all-positive pools take the skip and resume from its units; a
    # zero-weight pool node turns both off
    kinds: set[tuple[bool, bool]] = set()

    @given(st.integers(0, 2**32 - 1), st.booleans())
    def check(seed, zero_in_pool):
        p = _skip_problem(random.Random(seed), zero_in_pool)
        try:
            expected = resumed_flow_union(p)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                _flow_union(p)
            with pytest.raises(InfeasibleError):
                solve_rooted_nodeweight(p)
            kinds.add((zero_in_pool, False))
            return
        assert _flow_union(p) == expected
        assert solve_rooted_nodeweight(p) == induced_solve_rooted(p, "flow-union")
        kinds.add((zero_in_pool, True))

    check()
    assert {(False, True), (True, True)} <= kinds
    assert any(not feasible for _, feasible in kinds)


def test_each_bought_flow_costs_what_a_flow_from_zero_costs():
    # a resumed flow may buy other nodes at equal cost, so each one is
    # priced against the no-skip union of its own terminal, the nodes
    # bought so far free; the resumed runs are counted so none goes unseen
    depths = []

    @given(st.integers(0, 2**32 - 1), st.booleans())
    def check(seed, zero_in_pool):
        p = _skip_problem(random.Random(seed), zero_in_pool)
        g, bought = p.graph_r, []
        original = SplitFlowNetwork.min_cost_flow

        def recorded(self, s, t, units, *, resume=False):
            priced = tuple(v for v in p.pool if self._cost[2 * self.slot[v]] > 0)
            out = self._out[2 * self.slot[s] + 1]
            kept = sum(self._res[a + 1] for a in out if a % 2 == 0)
            got = original(self, s, t, units, resume=resume)
            bought.append((s, priced, got[1]))
            depths.append(kept if resume else None)
            return got

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(SplitFlowNetwork, "min_cost_flow", recorded)
            try:
                _flow_union(p)
            except InfeasibleError:
                return
        for t, priced, cost in bought:
            alone = RootedProblem(
                graph_r=g, root=p.root, terminals=(t,), pool=priced, k=p.k
            )
            assert cost == g.total_weight(_unmasked_flow_union(alone))

    check()
    assert None in depths and {0, 1, 2} <= set(depths)


def _count_min_cost_flows(monkeypatch) -> list[int]:
    calls = []
    original = SplitFlowNetwork.min_cost_flow

    def counted(self, s, t, units, *, resume=False):
        calls.append(s)
        return original(self, s, t, units, resume=resume)

    monkeypatch.setattr(SplitFlowNetwork, "min_cost_flow", counted)
    return calls


def test_a_terminal_that_already_holds_runs_no_min_cost_flow(monkeypatch):
    # on C6 terminal 0 has its own root edge, while 3 must buy 1-2 or 4-5
    p = _problem(cycle_graph(6), [0, 3], [0], 1)
    calls = _count_min_cost_flows(monkeypatch)
    expected = _unmasked_flow_union(p)
    assert calls == [0, 3]
    calls.clear()
    assert _flow_union(p) == expected
    assert calls == [3]  # fewer min-cost flows than terminals

    # a zero-weight pool node may be bought for free: every terminal runs
    g = cycle_graph(6, {0: 1, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1})
    p = _problem(g, [0, 3], [0], 1)
    calls.clear()
    assert _flow_union(p) == frozenset({1, 2})
    assert sorted(calls) == [0, 3]


@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(sorted(BACKENDS)))
def test_prune_starts_from_the_flow_union_witnesses(seed, zero_in_pool, backend):
    p = _skip_problem(random.Random(seed), zero_in_pool)
    try:
        selected, witnesses = BACKENDS[backend](p)
    except InfeasibleError:
        return
    inside = p.free | selected
    assert sorted(witnesses) == list(p.terminals)
    for t, witness in witnesses.items():
        assert witness <= inside
        own = SplitFlowNetwork(p.graph_r.induced(witness | {t, p.root}))
        assert own.max_flow(t, p.root, p.k) == p.k

    # the solve hands its witnesses over: no flow runs in the prune before
    # its first drop attempt, which closes a selected node
    events = []
    flow, set_open, prune = (
        SplitFlowNetwork.max_flow, SplitFlowNetwork.set_node_open, rooted_mod.prune_selection
    )

    def logged_flow(self, s, t, cap):
        events.append("flow")
        return flow(self, s, t, cap)

    def logged_open(self, v, is_open):
        if not is_open and v in selected:
            events.append("drop")
        set_open(self, v, is_open)

    def logged_prune(*args, **kwargs):
        events.append("prune")
        return prune(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(SplitFlowNetwork, "max_flow", logged_flow)
        patched.setattr(SplitFlowNetwork, "set_node_open", logged_open)
        patched.setattr(rooted_mod, "prune_selection", logged_prune)
        pruned = solve_rooted_nodeweight(p, backend)
    in_prune = events[events.index("prune") + 1:]
    before_drop = in_prune[: in_prune.index("drop")] if "drop" in in_prune else in_prune
    assert "flow" not in before_drop
    assert pruned == induced_prune_selection(p, selected)
    assert prune_selection(p, selected, witnesses=witnesses) == pruned


def test_prune_with_given_witnesses_runs_no_opening_flow(monkeypatch):
    p = _problem(complete_graph(5), [0, 1], [0], 1)
    events = []
    flow = SplitFlowNetwork.max_flow

    def logged_flow(self, s, t, cap):
        events.append(s)
        return flow(self, s, t, cap)

    monkeypatch.setattr(SplitFlowNetwork, "max_flow", logged_flow)
    witnesses = {0: frozenset({0}), 1: frozenset({0, 1})}
    assert prune_selection(p, frozenset(), witnesses=witnesses) == frozenset()
    assert events == []


def test_infeasible_exact_asks_the_whole_pool_once(monkeypatch):
    # leaf 5 has one path whatever is bought: the whole pool alone decides,
    # in at most one max-flow per terminal, not one per terminal and subset
    p = _problem(path_graph(6), [0, 1, 5], [0, 1], 2)
    assert len(p.pool) == 3
    bad = induced_find_infeasible_terminal(p, p.pool)
    assert bad is not None
    flows = []
    flow = SplitFlowNetwork.max_flow

    def counted(self, s, t, cap):
        flows.append(s)
        return flow(self, s, t, cap)

    monkeypatch.setattr(SplitFlowNetwork, "max_flow", counted)
    with pytest.raises(
        InfeasibleError, match=f"^terminal {bad}: no pool subset yields 2 disjoint root paths$"
    ):
        exact_backend(p)
    assert len(flows) <= len(p.terminals)
