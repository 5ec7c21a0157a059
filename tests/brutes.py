"""Independent brute-force oracles for cross-checking the fast code.

Everything here works by exhaustive enumeration straight from the
definitions, sharing no code with the flow machinery under test. Sizes
must stay tiny (n around 10). The exceptions are literal slow routes
the package replaced, kept as the references its fast routes are compared
against: the all-pair k-connectivity loop (one max-flow per node pair)
that the Even-schedule kernel replaced, that kernel's earlier form with
each later node's flow coming from a super-source, the all-pair certificate (k paths
per member pair) and its checker that the Even-schedule certificate
replaced, the rooted stage and guess-root
candidate loop that build one induced subgraph and one flow network per
feasibility check, in place of one masked network per solve, plain
successive shortest paths from zero and the flow union that ran them
for every terminal, the same union with each terminal's zero-cost
paths found on an induced subgraph and moved onto a fresh network, the
all-pair ``Fraction`` disk rule that the integer grid-cell rule replaced,
the edge-cost rooted stage that unit-disk solves ran until the
node-weighted stage was shown to select the same sets, the pair purchase
with its own network and min-cost flow that bought each forest bundle
before the one-terminal flow union did, the forest peel that built
one graph and one network per clique edge, the final prune that
restarted from the heaviest node after every drop, the residual
search a minimum cut ran before it read its flow's failed last search,
the flow searches that scanned every arc of every node they popped, and
the greedy domination that recomputed every node's gain in every round.

The last block holds helpers that only tests call, moved out of the
package: edge deletion and neighbourhoods, capped local connectivity,
all-pair terminal connectivity, the literal subset characterizations
(cut condition for k-in-connectivity to a root, subpartitions for
k-connectivity), the greedy pick order with its coverage potential, and
the exact minimum-weight m-dominating set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from kmcds import (
    ConnectivityViolation,
    Graph,
    Instance,
    RootedProblem,
    domination_counts,
    is_k_connected,
)
from kmcds._enum import iter_subsets_by_weight
from kmcds.augment import _is_forest
from kmcds.domset import _greedy_rounds
from kmcds.errors import InfeasibleError, InvariantViolationError
from kmcds.flow import _INF, SplitFlowNetwork
from kmcds.rooted import _terminal_order
from kmcds.solver import _Attempt

from toolbox import with_edges


def _reachable(g: Graph, src: int, blocked: frozenset[int]) -> set[int]:
    seen = {src}
    stack = [src]
    while stack:
        for w in g.adj[stack.pop()]:
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return seen


def brute_pair_connectivity(g: Graph, u: int, v: int) -> int:
    """Internally disjoint u-v path count from the separator definition."""
    if g.has_edge(u, v):
        return 1 + brute_pair_connectivity(without_edges(g, [(u, v)]), u, v)
    others = [x for x in g.nodes if x != u and x != v]
    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            if v not in _reachable(g, u, frozenset(cut)):
                return size
    return len(others) + 1  # unreachable: nonadjacent pairs always separate


def brute_is_k_connected(g: Graph, k: int) -> bool:
    if g.n <= k:
        return False
    nodes = g.nodes
    return all(
        brute_pair_connectivity(g, nodes[i], nodes[j]) >= k
        for i in range(g.n)
        for j in range(i + 1, g.n)
    )


def brute_m_dominating(g: Graph, members, m: int) -> bool:
    inside = set(members)
    return all(
        sum(1 for w in g.adj[v] if w in inside) >= m
        for v in g.nodes
        if v not in inside
    )


def enumerated_opt_kmcds(instance: Instance) -> tuple[frozenset[int] | None, int | None]:
    """Lightest (k, m)-cds and its weight, or (None, None), by literal enumeration.

    Every subset in weight order (ties lexicographic) is tested straight
    from the definitions, with no skip of subsets too small to qualify.
    """
    g = instance.graph
    for weight, subset in iter_subsets_by_weight(g.nodes, g.weights):
        if brute_m_dominating(g, subset, instance.m) and brute_is_k_connected(
            g.induced(subset), instance.k
        ):
            return frozenset(subset), weight
    return None, None


def _subsets_by_weight(g: Graph, candidates: list[int]):
    order = []
    for size in range(len(candidates) + 1):
        for combo in combinations(candidates, size):
            order.append((sum(g.weights[v] for v in combo), combo))
    order.sort(key=lambda t: (t[0], t[1]))
    return order


def brute_min_pair_pathset(
    g: Graph, free: frozenset[int], u: int, v: int, k: int
) -> tuple[int, tuple[int, ...]] | None:
    """Cheapest purchase outside ``free`` giving k disjoint u-v paths."""
    candidates = [x for x in g.nodes if x not in free]
    for weight, combo in _subsets_by_weight(g, candidates):
        sub = g.induced(free | set(combo))
        if brute_pair_connectivity(sub, u, v) >= k:
            return weight, combo
    return None


def brute_rooted_opt(
    g_r: Graph, root: int, terminals, pool, k: int
) -> tuple[int, tuple[int, ...]] | None:
    """Cheapest pool subset giving every terminal k disjoint root paths."""
    free = frozenset(g_r.nodes) - frozenset(pool)
    for weight, combo in _subsets_by_weight(g_r, sorted(pool)):
        sub = g_r.induced(free | set(combo))
        if all(brute_pair_connectivity(sub, t, root) >= k for t in terminals):
            return weight, combo
    return None


def _pair_order(g: Graph) -> list[tuple[int, int]]:
    pairs = []
    nodes = g.nodes
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            pairs.append((g.degree(u) + g.degree(v), u, v))
    pairs.sort()
    return [(u, v) for _, u, v in pairs]


def _connected(g: Graph) -> bool:
    if not g.nodes:
        return False
    seen = {g.nodes[0]}
    stack = [g.nodes[0]]
    while stack:
        for w in g.adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def allpair_is_k_connected(g: Graph, k: int) -> bool:
    """True iff g has more than k nodes and no pair falls below k paths.

    Tests every unordered pair (sorted by degree sum, so likely failures
    exit early) rather than a sparser certificate scheme: the graphs here
    are small and clarity wins. k=1 collapses to plain connectivity and
    min-degree < k can never pass, so both short-circuit.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n <= k:
        return False
    if min(g.degree(v) for v in g.nodes) < k:
        return False
    if k == 1:
        return _connected(g)
    net = SplitFlowNetwork(g)
    for u, v in _pair_order(g):
        if net.max_flow(u, v, k) < k:
            return False
    return True


def allpair_find_k_connectivity_violation(g: Graph, k: int) -> ConnectivityViolation | None:
    """None when g is k-connected, else a checkable witness."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n <= k:
        return ConnectivityViolation(None, (), False, too_small=True)
    net = SplitFlowNetwork(g)
    for u, v in _pair_order(g):
        f = net.max_flow(u, v, k)
        if f < k:
            cut, direct = net.min_cut_separator()
            return ConnectivityViolation((u, v), tuple(cut), direct)
    return None


def residual_reachable(net: SplitFlowNetwork, s: int) -> set[int]:
    """Network nodes the residual network of ``net``'s last flow reaches from s_out."""
    s_out = 2 * net.slot[s] + 1
    seen = {s_out}
    q = deque([s_out])
    res, to = net._res, net._to
    while q:
        x = q.popleft()
        for a in net._out[x]:
            if res[a] > 0 and to[a] not in seen:
                seen.add(to[a])
                q.append(to[a])
    return seen


class _SourceNetwork(SplitFlowNetwork):
    """The network with the super-source slot the kernel used before its super-sink.

    The super-source takes the one extra slot every network reserves for
    its super-sink; the source schedule never joins the sink.
    """

    SOURCE = SplitFlowNetwork.SINK

    def join_source(self, v: int) -> None:
        """Add the arc SOURCE -> v_in, of capacity one, to the initial capacities."""
        self._add_arc(2 * self.slot[self.SOURCE] + 1, 2 * self.slot[v])

    def source_side(self) -> list[int]:
        """Graph nodes, ascending, whose out-node the last flow's residual network reaches."""
        reach = residual_reachable(self, self._ends[0])
        return [v for v in self.ids if 2 * self.slot[v] + 1 in reach]


class FullScanNetwork(SplitFlowNetwork):
    """The network whose two searches scan every arc of every node they pop.

    The package's searches relax only the node arc of an in-node that no
    flow passes through, since conservation leaves every other arc out of
    it at residual 0; these are the searches from before that rule.
    """

    def _augment_bfs(self, s_out: int, t_in: int) -> bool:
        self._token += 1
        token = self._token
        seen, parent, res, to = self._seen, self._parent, self._res, self._to
        seen[s_out] = token
        q = deque([s_out])
        while q:
            x = q.popleft()
            for a in self._out[x]:
                if res[a] > 0:
                    y = to[a]
                    if seen[y] != token:
                        seen[y] = token
                        parent[y] = a
                        if y == t_in:
                            self._apply_path(t_in, s_out)
                            return True
                        q.append(y)
        return False

    def _augment_cheapest(self, s_out: int, t_in: int) -> int | None:
        # Bellman-Ford over residual arcs; residual costs may be negative but
        # no negative cycle exists while the flow stays cost-minimal.
        dist = [_INF] * self.size
        dist[s_out] = 0
        parent, res, to, cost = self._parent, self._res, self._to, self._cost
        inq = bytearray(self.size)
        inq[s_out] = 1
        q = deque([s_out])
        while q:
            x = q.popleft()
            inq[x] = 0
            dx = dist[x]
            for a in self._out[x]:
                if res[a] > 0:
                    y = to[a]
                    nd = dx + cost[a]
                    if nd < dist[y]:
                        dist[y] = nd
                        parent[y] = a
                        if not inq[y]:
                            inq[y] = 1
                            q.append(y)
        if dist[t_in] >= _INF:
            return None
        self._apply_path(t_in, s_out)
        return dist[t_in]


def _source_schedule(
    net: _SourceNetwork, nodes: list[int], k: int
) -> Iterable[tuple[int, int]]:
    for i in range(k):
        for j in range(i + 1, k):
            yield nodes[i], nodes[j]
    for v in nodes[: k - 1]:
        net.join_source(v)
    for j in range(k, len(nodes)):
        net.join_source(nodes[j - 1])
        yield _SourceNetwork.SOURCE, nodes[j]


def source_schedule_violation(g: Graph, k: int) -> ConnectivityViolation | None:
    """The kernel as it ran before its later-node flows were turned around.

    Even's schedule with each later v_j tested by a flow from a
    super-source joined to v_1..v_{j-1}; a failed v_j pairs the least
    node left on the source side with it. The kernel now runs each of
    those flows from v_j to a super-sink and must give the same witness.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n <= k:
        return ConnectivityViolation(None, (), False, too_small=True)
    nodes = g.nodes
    if k == 1:
        first = nodes[0]
        seen = {first}
        stack = [first]
        while stack:
            for w in g.adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == g.n:
            return None
        far = next(v for v in nodes if v not in seen)
        return ConnectivityViolation((first, far), (), False)
    for v in nodes:
        near = g.adj[v]
        if len(near) < k:
            far = next(w for w in nodes if w != v and w not in near)
            return ConnectivityViolation((min(v, far), max(v, far)), near, False)

    net = _SourceNetwork(g)
    for s, t in _source_schedule(net, nodes, k):
        f = net.max_flow(s, t, k)
        if f >= k:
            continue
        if s == _SourceNetwork.SOURCE:
            # ids ascend with the index, so the least source-side node is
            # one of v_1..v_{j-1}: fewer than k of them fall in the cut
            s = net.source_side()[0]
            net.max_flow(s, t, k)
        cut, direct = net.min_cut_separator()
        return ConnectivityViolation((s, t), tuple(cut), direct)
    return None


@dataclass(frozen=True, slots=True)
class AllPairCertificate:
    """Verifiable evidence that a node set is a (k, m)-cds.

    ``domination_counts`` lists, for every node outside the set, how many
    of its neighbors are members (each must reach m). ``witnesses`` maps
    each checked member pair to k internally disjoint paths, given as node
    sequences living inside the induced subgraph.
    """

    k: int
    m: int
    members: tuple[int, ...]
    domination_counts: Mapping[int, int]
    witnesses: Mapping[tuple[int, int], tuple[tuple[int, ...], ...]]


def allpair_build_certificate(
    g: Graph, members: Iterable[int], k: int, m: int, with_witnesses: bool = True
) -> AllPairCertificate:
    """Certificate for a feasible set; raises if the set is not one."""
    inside = sorted(set(members))
    counts = domination_counts(g, inside)
    bad = [v for v, c in counts.items() if c < m]
    if bad:
        raise InfeasibleError(f"node {bad[0]} has only {counts[bad[0]]} member neighbors")
    sub = g.induced(inside)
    if len(inside) <= k:
        raise InfeasibleError("a k-connected set needs more than k nodes")
    witnesses: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
    net = SplitFlowNetwork(sub)
    for i, u in enumerate(inside):
        for v in inside[i + 1:]:
            f = net.max_flow(u, v, k)
            if f < k:
                raise InfeasibleError(f"members {u} and {v} have only {f} disjoint paths")
            if with_witnesses:
                witnesses[(u, v)] = tuple(net.extract_paths())
    return AllPairCertificate(k, m, tuple(inside), counts, witnesses)


def allpair_certificate_is_sound(cert: AllPairCertificate, g: Graph) -> bool:
    """Re-validate a certificate from scratch against the graph."""
    inside = frozenset(cert.members)
    if domination_counts(g, inside) != dict(cert.domination_counts):
        return False
    if any(c < cert.m for c in cert.domination_counts.values()):
        return False
    sub = g.induced(inside)
    for (u, v), paths in cert.witnesses.items():
        if len(paths) != cert.k or len(set(paths)) != len(paths):
            return False
        interior_seen: set[int] = set()
        for path in paths:
            if path[0] != u or path[-1] != v:
                return False
            for a, b in zip(path, path[1:]):
                if not sub.has_edge(a, b):
                    return False
            interior = set(path[1:-1])
            # a simple path: no repeats, and endpoints only at the ends
            if len(interior) != len(path) - 2 or interior & {u, v}:
                return False
            if interior & interior_seen or not interior <= inside:
                return False
            interior_seen |= interior
    return True


def induced_find_infeasible_terminal(problem: RootedProblem, selected: Iterable[int]) -> int | None:
    """First terminal lacking k disjoint root paths in free∪selected."""
    keep = problem.free | frozenset(selected)
    sub = problem.graph_r.induced(keep)
    net = SplitFlowNetwork(sub)
    for t in problem.terminals:
        if net.max_flow(t, problem.root, problem.k) < problem.k:
            return t
    return None


def induced_witnesses(
    problem: RootedProblem, selected: Iterable[int]
) -> dict[int, frozenset[int]] | None:
    """Each terminal's k-flow nodes in the graph induced by free∪selected, or None if one fails."""
    sub = problem.graph_r.induced(problem.free | frozenset(selected))
    net = SplitFlowNetwork(sub)
    witnesses = {}
    for t in problem.terminals:
        if net.max_flow(t, problem.root, problem.k) < problem.k:
            return None
        witnesses[t] = frozenset(net.nodes_carrying_flow())
    return witnesses


def induced_prune_selection(problem: RootedProblem, selected: frozenset[int]) -> frozenset[int]:
    """Drop nodes whose removal keeps feasibility, heaviest first.

    A single pass suffices for inclusion minimality: feasibility is
    monotone, so a node kept against a larger set stays unremovable.
    """
    weights = problem.graph_r.weights
    current = set(selected)
    for v in sorted(selected, key=lambda v: (-weights[v], v)):
        current.discard(v)
        if induced_find_infeasible_terminal(problem, current) is not None:
            current.add(v)
    return frozenset(current)


def cheapest_path_sweeps(
    net: SplitFlowNetwork, s: int, t: int, units: int, value: int = 0
) -> tuple[int, int]:
    """Push cheapest s-t paths on ``net``'s residuals as they stand, up to ``units``.

    ``value`` units at cost 0 already flow; returns the whole flow's
    (value, cost).
    """
    s_out, t_in = 2 * net.slot[s] + 1, 2 * net.slot[t]
    cost = 0
    while value < units:
        got = net._augment_cheapest(s_out, t_in)
        if got is None:
            break
        cost += got
        value += 1
    return value, cost


def ssp_min_cost_flow(net: SplitFlowNetwork, s: int, t: int, units: int) -> tuple[int, int]:
    """Plain successive shortest paths from the masks, with no zero-cost phase.

    It also prices edge arcs correctly, which the package's
    ``min_cost_flow`` does not: its zero-cost phase reads node costs only.
    """
    net.max_flow(s, t, 0)  # a flow of no unit: residuals reset, ends recorded
    return cheapest_path_sweeps(net, s, t, units)


def _unmasked_flow_union(problem: RootedProblem) -> frozenset[int]:
    """The flow-union backend on a network of its own, pool priced up front.

    Every terminal runs plain successive shortest paths from zero, with no
    zero-cost phase, so with one terminal the weight bought is what a
    from-zero flow costs.
    """
    g = problem.graph_r
    pool = frozenset(problem.pool)
    net = SplitFlowNetwork(g)
    for v in pool:
        net.set_node_cost(v, g.weights[v])
    selected: set[int] = set()
    order = sorted(problem.terminals, key=lambda t: (-sum(g.weights[u] for u in g.adj[t]), t))
    for t in order:
        units, _cost = ssp_min_cost_flow(net, t, problem.root, problem.k)
        if units < problem.k:
            raise InfeasibleError(f"terminal {t}: only {units} of {problem.k} paths")
        for v in net.nodes_carrying_flow():
            if v in pool and v not in selected:
                selected.add(v)
                net.set_node_cost(v, 0)
    return frozenset(selected)


def push_paths(net: SplitFlowNetwork, paths: Iterable[tuple[int, ...]]) -> None:
    """Route one unit along each node path on ``net``'s residuals, as a flow would."""
    res = net._res
    for path in paths:
        arcs = [2 * net.slot[v] for v in path[1:-1]]  # each interior node's own arc
        for u, v in zip(path, path[1:]):
            first = net._edge_arcs[(u, v) if u < v else (v, u)]
            arcs.append(first if u < v else first + 2)  # the arc u_out -> v_in
        for a in arcs:
            res[a] -= 1
            res[a ^ 1] += 1


def zero_start_flow_union(problem: RootedProblem) -> frozenset[int]:
    """The flow-union backend with each zero-cost start taken literally.

    Per terminal, a max-flow on a network over G minus the pool nodes
    still priced above 0 gives its zero-cost paths; they are pushed onto
    a fresh network over ``graph_r`` with those nodes priced, and
    cheapest-path sweeps go on from them up to k units.
    """
    g = problem.graph_r
    pool = frozenset(problem.pool)
    selected: set[int] = set()
    order = sorted(problem.terminals, key=lambda t: (-sum(g.weights[u] for u in g.adj[t]), t))
    for t in order:
        priced = {v for v in pool - selected if g.weights[v] > 0}
        inside = SplitFlowNetwork(g.induced(set(g.nodes) - priced))
        kept = inside.max_flow(t, problem.root, problem.k)
        net = SplitFlowNetwork(g)
        for v in priced:
            net.set_node_cost(v, g.weights[v])
        net.max_flow(t, problem.root, 0)  # a flow of no unit between t and the root
        push_paths(net, inside.extract_paths())
        units, _cost = cheapest_path_sweeps(net, t, problem.root, problem.k, kept)
        if units < problem.k:
            raise InfeasibleError(f"terminal {t}: only {units} of {problem.k} paths")
        selected.update(v for v in net.nodes_carrying_flow() if v in pool)
    return frozenset(selected)


def induced_solve_rooted(problem: RootedProblem, backend: str) -> frozenset[int]:
    """The node-weighted rooted stage with induced-subgraph feasibility checks."""
    if backend == "flow-union":
        selected = zero_start_flow_union(problem)
    else:
        for _, subset in iter_subsets_by_weight(problem.pool, problem.graph_r.weights):
            if induced_find_infeasible_terminal(problem, subset) is None:
                break
        else:
            raise InfeasibleError("no pool subset is feasible")
        selected = frozenset(subset)
    return induced_prune_selection(problem, selected)


def induced_best_guess(instance: Instance, terminals: frozenset[int], backend: str):
    """The guess-root candidate loop with no neighbour bound.

    Builds the root-trimmed graph and a fresh rooted stage per candidate;
    returns the solver's record of the lightest feasible candidate (its
    root, picked neighbours, connectors and weight), the first
    found on ties, or None.
    """
    g = instance.graph
    k = instance.k
    w_terminals = g.total_weight(terminals)
    best_weight = None
    best = None
    for r in sorted(g.nodes, key=lambda v: (g.weights[v], v)):
        if g.degree(r) < k:
            continue
        lower = w_terminals + (0 if r in terminals else g.weights[r])
        if best_weight is not None and lower >= best_weight:
            continue
        for picked in combinations(g.adj[r], k):
            forced = set(picked) | {r} | terminals
            lower_full = g.total_weight(forced)
            if best_weight is not None and lower_full >= best_weight:
                continue
            trimmed = without_edges(
                g, ((r, x) for x in g.adj[r] if x not in picked)
            )
            problem = RootedProblem(
                graph_r=trimmed,
                root=r,
                terminals=tuple(sorted(terminals - {r})),
                pool=tuple(v for v in g.nodes if v not in forced),
                k=k,
            )
            try:
                connectors = induced_solve_rooted(problem, backend)
            except InfeasibleError:
                continue
            weight = g.total_weight(forced | connectors)
            if best_weight is None or weight < best_weight:
                best_weight = weight
                best = _Attempt(tuple(picked), connectors, weight, guess_root=r)
    return best


def restart_final_prune(
    instance: Instance, members: set[int], protected: frozenset[int]
) -> list[int]:
    """Repeatedly drop the heaviest removable node outside ``protected``.

    ``protected`` is the m-dominating set T and every trial keeps it, so
    every trial m-dominates (a node outside the trial lies outside T and
    has m neighbours in T): only k-connectivity is tested.
    """
    g = instance.graph
    dropped: list[int] = []
    while True:
        for v in sorted(members - protected, key=lambda v: (-g.weights[v], v)):
            trial = members - {v}
            if is_k_connected(g.induced(trial), instance.k):
                members.discard(v)
                dropped.append(v)
                break
        else:
            return dropped


def edge_cost_map(g: Graph, priced: Iterable[int]) -> dict[tuple[int, int], int]:
    """Edge costs w_u + w_v counting only endpoints in ``priced``."""
    p = frozenset(priced)
    return {
        (u, v): (g.weights[u] if u in p else 0) + (g.weights[v] if v in p else 0)
        for u, v in g.edges
    }


def set_edge_cost(net: SplitFlowNetwork, u: int, v: int, c: int) -> None:
    """Price both arcs of edge uv at ``c`` (their reverse arcs at -c)."""
    first = net._edge_arcs[(u, v) if u < v else (v, u)]
    for a in (first, first + 2):
        net._cost[a] = c
        net._cost[a + 1] = -c


def edges_carrying_flow(net: SplitFlowNetwork) -> list[tuple[int, int]]:
    """Edges one of whose arcs the current flow uses."""
    res, cap0 = net._res, net._cap0
    return [
        e for e, a in net._edge_arcs.items() if res[a] < cap0[a] or res[a + 2] < cap0[a + 2]
    ]


def edgecost_flow_union(
    problem: RootedProblem,
    edge_costs: Mapping[tuple[int, int], int] | None = None,
) -> frozenset[int]:
    """Flow-union variant pricing edges at the weight of priced endpoints, pruned.

    Default costs are w_u + w_v restricted to pool endpoints; nodes joining
    the selection stop contributing to the edges around them. The prune is
    the literal :func:`induced_prune_selection`.
    """
    g = problem.graph_r
    pool = frozenset(problem.pool)
    if edge_costs is None:
        edge_costs = edge_cost_map(g, pool)
    net = SplitFlowNetwork(g)
    for e, c in edge_costs.items():
        set_edge_cost(net, *e, c)
    selected: set[int] = set()

    def _refresh_costs_around(v: int) -> None:
        priced = pool - selected
        for w in g.adj[v]:
            e = (v, w) if v < w else (w, v)
            c = (g.weights[e[0]] if e[0] in priced else 0) + (
                g.weights[e[1]] if e[1] in priced else 0
            )
            set_edge_cost(net, *e, c)

    for t in _terminal_order(problem):
        units, _cost = ssp_min_cost_flow(net, t, problem.root, problem.k)
        if units < problem.k:
            raise InfeasibleError(
                f"terminal {t}: only {units} of {problem.k} disjoint paths to the root"
            )
        touched: set[int] = set()
        for u, v in edges_carrying_flow(net):
            touched.update((u, v))
        for v in sorted(touched):
            if v in pool and v not in selected:
                selected.add(v)
                _refresh_costs_around(v)
    return induced_prune_selection(problem, frozenset(selected))


def min_weight_k_paths(
    g: Graph, free: Iterable[int], u: int, v: int, k: int
) -> frozenset[int]:
    """Cheapest node set outside ``free`` buying k disjoint u-v paths.

    Nodes in ``free`` (which must include u and v) cost nothing; the
    returned set contains exactly the priced nodes the flow traverses and
    its weight never exceeds twice the cheapest feasible purchase.
    """
    free_set = frozenset(free)
    if u not in free_set or v not in free_set:
        raise ValueError("both endpoints must be free")
    net = SplitFlowNetwork(g)
    for w in g.nodes:
        if w not in free_set:
            net.set_node_cost(w, g.weights[w])
    units, _cost = net.min_cost_flow(u, v, k)
    if units < k:
        raise InfeasibleError(
            f"only {units} of {k} disjoint paths exist between {u} and {v}"
        )
    return frozenset(net.nodes_carrying_flow()) - free_set


def brute_disk_edges(
    coords: Mapping[int, tuple[Fraction, Fraction]], radius: Fraction
) -> list[tuple[int, int]]:
    """Every pair within ``radius``, by ``Fraction`` squared distances."""
    rr = radius * radius
    out = []
    for u, v in combinations(sorted(coords), 2):
        dx = coords[u][0] - coords[v][0]
        dy = coords[u][1] - coords[v][1]
        if dx * dx + dy * dy <= rr:
            out.append((u, v))
    return out


def without_edges(g: Graph, drop: Iterable[tuple[int, int]]) -> Graph:
    """g with the edges in ``drop`` removed (either orientation)."""
    gone = {(u, v) if u < v else (v, u) for u, v in drop}
    return Graph(g.nodes, [e for e in g.edges if e not in gone], g.weights)


def neighbors(g: Graph, members: Iterable[int]) -> frozenset[int]:
    """Nodes outside ``members`` adjacent to at least one member."""
    inside = frozenset(members)
    out: set[int] = set()
    for v in inside:
        out.update(g.adj[v])
    return frozenset(out - inside)


def local_connectivity(g: Graph, u: int, v: int, cap: int) -> int:
    """Number of internally disjoint u-v paths, capped at ``cap``.

    Adjacent pairs count the direct edge as one path.
    """
    if u == v:
        raise ValueError("local connectivity needs two distinct nodes")
    if not (g.has_node(u) and g.has_node(v)):
        raise ValueError("both endpoints must be in the graph")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if cap == 0:
        return 0
    return SplitFlowNetwork(g).max_flow(u, v, cap)


def is_k_T_connected(g: Graph, terminals: Iterable[int], k: int) -> bool:
    """True iff every pair of terminals keeps k internally disjoint paths."""
    ts = sorted(set(terminals))
    if not ts:
        raise ValueError("need at least one terminal")
    for t in ts:
        if not g.has_node(t):
            raise ValueError(f"terminal {t} not in graph")
    if k < 1:
        raise ValueError("k must be at least 1")
    net = SplitFlowNetwork(g)
    for i, u in enumerate(ts):
        for v in ts[i + 1:]:
            if net.max_flow(u, v, k) < k:
                return False
    return True


_CUT_CONDITION_CAP = 20


def check_cut_characterization(
    g_r: Graph,
    terminals: Iterable[int],
    selected: Iterable[int],
    attachment: Iterable[int],
    k: int,
) -> bool:
    """Brute-force cut characterization of k-in-connectivity to the root.

    The root is the one node of ``g_r`` outside terminals∪selected. For
    every nonempty A within terminals∪selected, counts A's neighbors in
    the graph without the root plus A's overlap with the attachment; all
    sums must reach k. Agrees with the flow test by Menger's theorem.
    """
    ts = frozenset(terminals)
    ss = frozenset(selected)
    base = sorted(ts | ss)
    extra = set(g_r.nodes) - set(base)
    if len(extra) != 1:
        raise ValueError("graph must contain exactly terminals, selected and one root")
    (root,) = extra
    if len(base) > _CUT_CONDITION_CAP:
        raise ValueError(f"subset enumeration capped at {_CUT_CONDITION_CAP} nodes")
    pos = {v: i for i, v in enumerate(base)}
    nbr = [0] * len(base)
    for v in base:
        mask = 0
        for w in g_r.adj[v]:
            if w != root:
                mask |= 1 << pos[w]
        nbr[pos[v]] = mask
    att_mask = 0
    for v in attachment:
        if v not in pos:
            raise ValueError(f"attachment node {v} outside terminals and selected")
        att_mask |= 1 << pos[v]
    b = len(base)
    for a_mask in range(1, 1 << b):
        gamma = 0
        rest = a_mask
        while rest:
            low = rest & -rest
            gamma |= nbr[low.bit_length() - 1]
            rest ^= low
        gamma &= ~a_mask
        if gamma.bit_count() + (a_mask & att_mask).bit_count() < k:
            return False
    return True


_SUBPARTITION_CAP = 12


def check_subpartition_characterization(g: Graph, k: int) -> bool:
    """Brute-force check: no two nonadjacent node sets leave < k outside.

    Enumerates every disjoint nonempty pair (A, B) with no crossing edge
    and demands at least k nodes outside A∪B. Equivalent to k-connectivity
    for graphs with more than k nodes.
    """
    if g.n > _SUBPARTITION_CAP:
        raise ValueError(f"subset enumeration capped at {_SUBPARTITION_CAP} nodes")
    n = g.n
    base = list(g.nodes)
    pos = {v: i for i, v in enumerate(base)}
    nbr = [0] * n
    for v in base:
        for w in g.adj[v]:
            nbr[pos[v]] |= 1 << pos[w]
    full = (1 << n) - 1
    for a_mask in range(1, full + 1):
        closure = a_mask
        rest = a_mask
        while rest:
            low = rest & -rest
            closure |= nbr[low.bit_length() - 1]
            rest ^= low
        allowed = full & ~closure
        b_mask = allowed
        while b_mask:
            if n - a_mask.bit_count() - b_mask.bit_count() < k:
                return False
            b_mask = (b_mask - 1) & allowed
    return True


_OPT_MDS_CAP = 16


def scan_greedy_rounds(g: Graph, m: int) -> list[int]:
    """The density-rule greedy with every gain recomputed in every round."""
    nodes = g.nodes
    selected: set[int] = set()
    # demand[v]: covers still owed to v; joining T clears a node's own demand
    demand = {v: m for v in nodes}
    outstanding = m * len(nodes)
    order: list[int] = []
    while outstanding > 0:
        best_v = -1
        best_gain = 0
        best_w = 0
        for u in nodes:
            if u in selected:
                continue
            gain = demand[u] + sum(1 for w in g.adj[u] if w not in selected and demand[w] > 0)
            if gain == 0:
                continue
            # ratio gain/weight by cross-multiplication; zero weight wins
            # over any positive weight, ties keep the lower index
            if best_v < 0 or gain * best_w > best_gain * g.weights[u]:
                best_v, best_gain, best_w = u, gain, g.weights[u]
        if best_v < 0:
            raise RuntimeError("positive demand but no node with positive gain")
        order.append(best_v)
        selected.add(best_v)
        outstanding -= demand[best_v]
        demand[best_v] = 0
        for w in g.adj[best_v]:
            if w not in selected and demand[w] > 0:
                demand[w] -= 1
                outstanding -= 1
    return order


def greedy_mds_order(instance: Instance) -> list[int]:
    """Greedy selections in pick order (for tracing the potential climb)."""
    return _greedy_rounds(instance.graph, instance.m)


def coverage_potential(g: Graph, members: frozenset[int], m: int) -> int:
    """Sum over nodes of min(m, covers received); m*n at feasibility."""
    total = 0
    for v in g.nodes:
        if v in members:
            total += m
        else:
            total += min(m, sum(1 for w in g.adj[v] if w in members))
    return total


def opt_mds_bruteforce(instance: Instance) -> frozenset[int]:
    """Exact minimum-weight m-dominating set by weight-ordered enumeration.

    Capped at 16 nodes. Ties resolve to the lexicographically first
    subset, so the result is deterministic.
    """
    g = instance.graph
    if g.n > _OPT_MDS_CAP:
        raise ValueError(f"brute force capped at {_OPT_MDS_CAP} nodes")
    m = instance.m
    nbr_mask = {v: 0 for v in g.nodes}
    for v in g.nodes:
        for w in g.adj[v]:
            nbr_mask[v] |= 1 << w
    full = 0
    for v in g.nodes:
        full |= 1 << v
    for _, subset in iter_subsets_by_weight(g.nodes, g.weights):
        mask = 0
        for v in subset:
            mask |= 1 << v
        rest = full & ~mask
        ok = True
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if (nbr_mask[v] & mask).bit_count() < m:
                ok = False
                break
            rest ^= low
        if ok:
            return frozenset(subset)
    raise RuntimeError("the full node set always m-dominates")


def clique_suffices(h: Graph, attachment: Iterable[int], k: int) -> bool:
    """Whether h plus the clique on ``attachment`` is k-connected.

    The precondition ``minimal_augmenting_forest`` states and does not
    test, checked on a fresh graph by the connectivity kernel.
    """
    return is_k_connected(with_edges(h, combinations(sorted(set(attachment)), 2)), k)


def rebuilt_augmenting_forest(
    h: Graph, attachment: Iterable[int], k: int
) -> tuple[tuple[int, int], ...]:
    """Inclusion-minimal virtual edges on ``attachment`` making h k-connected.

    The reference for ``minimal_augmenting_forest`` on ``members`` = h's
    nodes: each peel test builds its own graph and flow network instead
    of closing an edge on the solver's. Starts from the clique on the
    attachment (edges already in h are discarded up front) and peels
    edges in lexicographic order whenever the rest still suffices. Raises
    when even the clique cannot reach k-connectivity (see
    :func:`clique_suffices`).
    """
    att = sorted(set(attachment))
    for v in att:
        if not h.has_node(v):
            raise ValueError(f"attachment node {v} not in graph")
    clique = [e for e in combinations(att, 2) if not h.has_edge(*e)]
    if not clique_suffices(h, att, k):
        raise InvariantViolationError(
            "attachment clique cannot make the graph k-connected"
        )
    kept = list(clique)
    for e in clique:
        rest = [f for f in kept if f != e]
        # a k-connected graph stays k-connected after deleting edge uv iff
        # u and v keep k disjoint paths: any new small cut must split them
        candidate = with_edges(h, rest)
        if local_connectivity(candidate, e[0], e[1], k) >= k:
            kept = rest
    if not _is_forest(att, kept):
        raise InvariantViolationError("peeled augmentation is not a forest")
    if len(kept) > max(len(att) - 1, 0):
        raise InvariantViolationError("augmentation exceeds |attachment| - 1 edges")
    return tuple(kept)
