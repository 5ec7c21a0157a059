"""Connectivity augmentation: the virtual forest.

Step one of the endgame: find an inclusion-minimal set of virtual edges on
the attachment nodes whose addition makes a graph k-connected (a forest,
by minimality). Step two, buying k internally disjoint paths for each
virtual edge, is the rooted flow union with one terminal (see
:mod:`kmcds.solver`).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import InvariantViolationError
from .flow import SplitFlowNetwork
from .graph import Graph
from .connectivity import find_k_connectivity_violation


def _is_forest(nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> bool:
    parent = {v: v for v in nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def minimal_augmenting_forest(
    h: Graph, attachment: Iterable[int], k: int
) -> tuple[tuple[int, int], ...]:
    """Inclusion-minimal virtual edges on ``attachment`` making h k-connected.

    Starts from the clique on the attachment (edges already in h are
    discarded up front) and peels edges in lexicographic order whenever the
    rest still suffices, on the check's network, where a peeled edge stays closed.
    Raises when even the clique cannot reach k-connectivity: callers
    guarantee it can, so that is an upstream bug.
    """
    att = sorted(set(attachment))
    for v in att:
        if not h.has_node(v):
            raise ValueError(f"attachment node {v} not in graph")
    clique = [e for e in combinations(att, 2) if not h.has_edge(*e)]
    full = h.union_edges(clique)
    net = SplitFlowNetwork(full)
    if find_k_connectivity_violation(full, k, net=net) is not None:
        raise InvariantViolationError(
            "attachment clique cannot make the graph k-connected"
        )
    if not clique:
        return ()
    # a k-connected graph stays k-connected after deleting edge uv iff u and
    # v keep k disjoint paths: any new small cut must split them
    kept = []
    for u, v in clique:
        net.set_edge_open(u, v, False)
        if net.max_flow(u, v, k) < k:
            net.set_edge_open(u, v, True)
            kept.append((u, v))
    if not _is_forest(att, kept):
        raise InvariantViolationError("peeled augmentation is not a forest")
    return tuple(kept)
