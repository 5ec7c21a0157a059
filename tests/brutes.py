"""Independent brute-force oracles for cross-checking the fast code.

Everything here works by exhaustive enumeration straight from the
definitions, sharing no code with the flow machinery under test. Sizes
must stay tiny (n around 10). The exceptions are literal slow routes
the package replaced, kept as the references its fast routes are compared
against: the all-pair k-connectivity loop (one max-flow per node pair)
that the Even-schedule kernel replaced, the all-pair certificate (k paths
per member pair) and its checker that the Even-schedule certificate
replaced, the rooted stage and guess-root
candidate loop that build one induced subgraph and one flow network per
feasibility check, in place of one masked network per solve, the
all-pair ``Fraction`` disk rule that the integer grid-cell rule replaced,
and the edge-cost rooted stage that unit-disk solves ran until the
node-weighted stage was shown to select the same sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from kmcds import (
    ConnectivityViolation,
    Graph,
    GuaranteeInfo,
    Instance,
    RootedProblem,
    domination_counts,
)
from kmcds._enum import iter_subsets_by_weight
from kmcds.errors import InfeasibleError
from kmcds.flow import SplitFlowNetwork
from kmcds.rooted import _terminal_order, prune_selection


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
        return 1 + brute_pair_connectivity(g.without_edges([(u, v)]), u, v)
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
        net.reset()
        if net.max_flow(u, v, k) < k:
            return False
    return True


def allpair_find_k_connectivity_violation(g: Graph, k: int) -> ConnectivityViolation | None:
    """None when g is k-connected, else a checkable witness."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n <= k:
        return ConnectivityViolation(None, (), False, 0, too_small=True)
    net = SplitFlowNetwork(g)
    for u, v in _pair_order(g):
        net.reset()
        f = net.max_flow(u, v, k)
        if f < k:
            cut, direct = net.min_cut_separator(u, v)
            return ConnectivityViolation((u, v), tuple(cut), direct, f)
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
            net.reset()
            f = net.max_flow(u, v, k)
            if f < k:
                raise InfeasibleError(f"members {u} and {v} have only {f} disjoint paths")
            if with_witnesses:
                witnesses[(u, v)] = tuple(net.extract_paths(u, v))
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
        net.reset()
        if net.max_flow(t, problem.root, problem.k) < problem.k:
            return t
    return None


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


def _unmasked_flow_union(problem: RootedProblem) -> frozenset[int]:
    """The flow-union backend on a network of its own, pool priced up front.

    Every terminal runs its min-cost flow: there is no skip check.
    """
    g = problem.graph_r
    pool = frozenset(problem.pool)
    net = SplitFlowNetwork(g)
    for v in pool:
        net.set_node_cost(v, g.weights[v])
    selected: set[int] = set()
    order = sorted(problem.terminals, key=lambda t: (-sum(g.weights[u] for u in g.adj[t]), t))
    for t in order:
        net.reset()
        units, _cost = net.min_cost_flow(t, problem.root, problem.k)
        if units < problem.k:
            raise InfeasibleError(f"terminal {t}: only {units} of {problem.k} paths")
        for v in net.nodes_carrying_flow():
            if v in pool and v not in selected:
                selected.add(v)
                net.set_node_cost(v, 0)
    return frozenset(selected)


def induced_solve_rooted(
    problem: RootedProblem, backend: str
) -> tuple[frozenset[int], GuaranteeInfo]:
    """The node-weighted rooted stage with induced-subgraph feasibility checks."""
    if backend == "flow-union":
        selected = _unmasked_flow_union(problem)
        info = GuaranteeInfo("flow-union", "2|T|", 2 * len(problem.terminals))
    else:
        for _, subset in iter_subsets_by_weight(problem.pool, problem.graph_r.weights):
            if induced_find_infeasible_terminal(problem, subset) is None:
                break
        else:
            raise InfeasibleError("no pool subset is feasible")
        selected = frozenset(subset)
        info = GuaranteeInfo("exact", "1", 1)
    return induced_prune_selection(problem, selected), info


def induced_best_guess(instance: Instance, terminals: frozenset[int], backend: str):
    """The guess-root candidate loop with no neighbour bound.

    Builds the root-trimmed graph and a fresh rooted stage per candidate;
    returns (root, picked, connectors, info) of the lightest feasible
    candidate, the first found on ties, or None.
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
            trimmed = g.without_edges(
                (r, x) for x in g.adj[r] if x not in picked
            )
            problem = RootedProblem(
                graph_r=trimmed,
                root=r,
                terminals=tuple(sorted(terminals - {r})),
                pool=tuple(v for v in g.nodes if v not in forced),
                k=k,
            )
            try:
                connectors, info = induced_solve_rooted(problem, backend)
            except InfeasibleError:
                continue
            weight = g.total_weight(forced | connectors)
            if best_weight is None or weight < best_weight:
                best_weight = weight
                best = (r, tuple(picked), connectors, info)
    return best


def edge_cost_map(g: Graph, priced: Iterable[int]) -> dict[tuple[int, int], int]:
    """Edge costs w_u + w_v counting only endpoints in ``priced``."""
    p = frozenset(priced)
    return {
        (u, v): (g.weights[u] if u in p else 0) + (g.weights[v] if v in p else 0)
        for u, v in g.edges
    }


def set_edge_cost(net: SplitFlowNetwork, u: int, v: int, c: int) -> None:
    """Price both arcs of edge uv at ``c`` (their reverse arcs at -c)."""
    e = (u, v) if u < v else (v, u)
    for a in net._edge_arcs[e]:
        net._cost[a] = c
        net._cost[a + 1] = -c


def edges_carrying_flow(net: SplitFlowNetwork) -> list[tuple[int, int]]:
    """Edges one of whose arcs the current flow uses."""
    res, cap0 = net._res, net._cap0
    return [
        e for e, (a1, a2) in net._edge_arcs.items() if res[a1] < cap0[a1] or res[a2] < cap0[a2]
    ]


def edgecost_flow_union(
    problem: RootedProblem,
    edge_costs: Mapping[tuple[int, int], int] | None = None,
) -> tuple[frozenset[int], GuaranteeInfo]:
    """Flow-union variant pricing edges at the weight of priced endpoints.

    Default costs are w_u + w_v restricted to pool endpoints; nodes joining
    the selection stop contributing to the edges around them.
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
        net.reset()
        units, _cost = net.min_cost_flow(t, problem.root, problem.k)
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
    info = GuaranteeInfo("flow-union-edgecost", "2|T|", 2 * len(problem.terminals))
    return prune_selection(problem, frozenset(selected), net), info


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
