"""Connectivity augmentation: the virtual forest.

Step one of the endgame: find an inclusion-minimal set of virtual edges on
the attachment nodes whose addition makes the selection k-connected (a
forest, by minimality), on the network of the solver's attempt. Step two,
buying k internally disjoint paths for each virtual edge, is the rooted
flow union with one terminal (see :mod:`kmcds.solver`).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import InvariantViolationError
from .flow import SplitFlowNetwork
from .graph import Graph


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
    g: Graph, members: Iterable[int], attachment: Iterable[int], k: int, net: SplitFlowNetwork
) -> tuple[tuple[int, int], ...]:
    """Inclusion-minimal virtual edges on ``attachment`` making G[members] k-connected.

    Peels the clique on the attachment R, less g's edges, in lexicographic
    order on ``net`` (over g or a supergraph such as g_r, G[members] open),
    closing the other nodes and joining the missing edges inside its
    ``masks_kept()``. Untested precondition: G[members] + K(R) is k-connected.
    It holds, for m >= k, when the members hold more than k nodes and an
    m-dominating set T, each t in T with k member paths to distinct nodes of
    R sharing only t: without fewer than k nodes X, R - X is a nonempty clique
    that each t in T - X reaches, as does each other member via T - X.
    """
    keep = frozenset(members)
    att = sorted(set(attachment))
    if not keep.issuperset(att):
        raise ValueError(f"attachment nodes {sorted(set(att) - keep)} are not members")
    clique = [e for e in combinations(att, 2) if not g.has_edge(*e)]
    kept = []
    with net.masks_kept():
        for v in set(net.ids) - keep:
            net.set_node_open(v, False)
        for u, v in clique:
            net.join_edge(u, v)
        # a k-connected graph stays k-connected after deleting edge uv iff
        # u and v keep k disjoint paths: any new small cut must split them
        for u, v in clique:
            net.set_edge_open(u, v, False)
            if net.max_flow(u, v, k) < k:
                net.set_edge_open(u, v, True)
                kept.append((u, v))
    if not _is_forest(att, kept):
        raise InvariantViolationError("peeled augmentation is not a forest")
    return tuple(kept)
