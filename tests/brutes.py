"""Independent brute-force oracles for cross-checking the fast code.

Everything here works by exhaustive enumeration straight from the
definitions, sharing no code with the flow machinery under test. Sizes
must stay tiny (n around 10). The one exception is the all-pair
k-connectivity reference at the end: the literal loop (one max-flow per
node pair) that the package's Even-schedule kernel replaced, kept as the
slow route that kernel is compared against.
"""

from __future__ import annotations

from itertools import combinations

from kmcds import ConnectivityViolation, Graph
from kmcds.flow import SplitFlowNetwork


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
