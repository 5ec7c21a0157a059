"""Connectivity and domination verifiers plus brute-force characterizations.

The flow-based tests here are the package's ground truth for Menger-style
connectivity questions. Whole-graph k-connectivity goes through one kernel,
:func:`find_k_connectivity_violation`, on Even's schedule (Even 1975,
SIAM J. Comput. 4(3); see also Esfahanian & Hakimi 1984, Networks 14):
with nodes v_1..v_n in id order, the graph is k-connected iff the first k
nodes are pairwise k-connected and every later v_j keeps k disjoint paths
from a super-source joined to v_1..v_{j-1}. That is C(k, 2) + (n - k)
max-flows on one network instead of one per node pair; k = 1 is a plain
search and a node of degree below k is a witness without any flow. The
literal all-pair loop it replaced is kept in the test suite
(``tests/brutes.py``) as the reference the kernel is compared against.
Certificates (:func:`build_certificate`) still check every member pair,
since each pair carries its own path witness.

The subset-enumeration characterizations
(:func:`check_cut_characterization`, :func:`check_subpartition_characterization`)
are independent second routes used to cross-check the flow answers; they
stay deliberately literal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .errors import InfeasibleError
from .flow import SplitFlowNetwork
from .graph import Graph


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


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff g has more than k nodes and no pair falls below k paths.

    Runs the kernel of :func:`find_k_connectivity_violation`: at most
    C(k, 2) + (n - k) max-flows, none for k = 1 or when a node has degree
    below k.
    """
    return find_k_connectivity_violation(g, k) is None


@dataclass(frozen=True, slots=True)
class ConnectivityViolation:
    """Witness that a graph is not k-connected.

    ``separator`` disconnects ``pair`` once removed; when ``direct_edge``
    is set the pair is adjacent and the edge must be dropped as well (the
    witness then certifies local connectivity below k, Menger-style).
    ``value`` is the size of that cut, ``len(separator) + direct_edge``,
    and so an upper bound on the pair's disjoint paths (equal to it when
    a flow found the witness). ``too_small`` marks graphs with at most k
    nodes, where no separator is needed.
    """

    pair: tuple[int, int] | None
    separator: tuple[int, ...]
    direct_edge: bool
    value: int
    too_small: bool = False


def _pair_violation(
    net: SplitFlowNetwork, u: int, v: int, k: int
) -> ConnectivityViolation | None:
    net.reset()
    f = net.max_flow(u, v, k)
    if f >= k:
        return None
    cut, direct = net.min_cut_separator(u, v)
    return ConnectivityViolation((u, v), tuple(cut), direct, f)


def find_k_connectivity_violation(g: Graph, k: int) -> ConnectivityViolation | None:
    """None when g is k-connected, else a checkable witness.

    The one connectivity kernel (see the module docstring), in this order:

    - at most k nodes: ``too_small``;
    - k = 1: a search from the first node; the witness pairs it with the
      first node left unreached, separator ``()``;
    - a node v of degree below k: v and its first non-neighbour, separated
      by N(v);
    - Even's schedule on one network: the first k nodes pairwise, then
      each later node v_j against the super-source joined to v_1..v_{j-1}.
      When v_j fails, an earlier node u left on the source side of the
      minimum cut is not adjacent to v_j and is cut off from it by fewer
      than k nodes; one u-v_j flow turns that into the usual pair witness.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n <= k:
        return ConnectivityViolation(None, (), False, 0, too_small=True)
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
        return ConnectivityViolation((first, far), (), False, 0)
    for v in nodes:
        near = g.adj[v]
        if len(near) < k:
            far = next(w for w in nodes if w != v and w not in near)
            return ConnectivityViolation(
                (min(v, far), max(v, far)), near, False, len(near)
            )

    net = SplitFlowNetwork(g)
    for i in range(k):
        for j in range(i + 1, k):
            found = _pair_violation(net, nodes[i], nodes[j], k)
            if found is not None:
                return found
    source = SplitFlowNetwork.SOURCE
    for v in nodes[: k - 1]:
        net.join_source(v)
    for j in range(k, g.n):
        net.join_source(nodes[j - 1])
        net.reset()
        if net.max_flow(source, nodes[j], k) < k:
            # ids ascend with the index, so the least source-side node is
            # one of v_1..v_{j-1}: fewer than k of them fall in the cut
            u = net.source_side(source)[0]
            return _pair_violation(net, u, nodes[j], k)
    return None


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
            net.reset()
            if net.max_flow(u, v, k) < k:
                return False
    return True


def is_k_in_connected_to_root(g_r: Graph, root: int, k: int) -> bool:
    """True iff every non-root node keeps k disjoint paths to ``root``."""
    return find_root_connectivity_violation(g_r, root, k) is None


def find_root_connectivity_violation(
    g_r: Graph, root: int, k: int, terminals: Iterable[int] | None = None
) -> int | None:
    """First node (ascending id) lacking k disjoint paths to the root."""
    if not g_r.has_node(root):
        raise ValueError(f"root {root} not in graph")
    nodes = sorted(set(terminals)) if terminals is not None else \
        [v for v in g_r.nodes if v != root]
    net = SplitFlowNetwork(g_r)
    for v in nodes:
        if v == root:
            continue
        net.reset()
        if net.max_flow(v, root, k) < k:
            return v
    return None


def domination_counts(g: Graph, members: Iterable[int]) -> dict[int, int]:
    """For each node outside ``members``: its neighbor count inside."""
    inside = frozenset(members)
    return {
        v: sum(1 for w in g.adj[v] if w in inside)
        for v in g.nodes
        if v not in inside
    }


class DominationCheck(NamedTuple):
    ok: bool
    counts: dict[int, int]


def is_m_dominating(g: Graph, members: Iterable[int], m: int) -> DominationCheck:
    """(verdict, per-node counts) for m-domination of nodes outside ``members``.

    Vacuously ok when ``members`` covers the whole graph.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    counts = domination_counts(g, members)
    return DominationCheck(all(c >= m for c in counts.values()), counts)


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


@dataclass(frozen=True, slots=True)
class Certificate:
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


def build_certificate(
    g: Graph, members: Iterable[int], k: int, m: int, with_witnesses: bool = True
) -> Certificate:
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
    return Certificate(k, m, tuple(inside), counts, witnesses)


def certificate_is_sound(cert: Certificate, g: Graph) -> bool:
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
