"""Greedy minimum-weight m-dominating sets.

A set T m-dominates the graph when every node outside T has at least m
neighbors inside T. The greedy solver follows the density rule for
multicover: it repeatedly adds the node with the best ratio of residual
demand reduced to weight. Its weight stays within ln(max_degree + m) + 1
of the optimum.

The rounds are evaluated lazily (Minoux's accelerated greedy), not by
a scan of every node in every round. A node's gain is its own residual
demand plus its neighbours that still have demand. A pick only lowers
demands, so a gain never grows, and a gain computed in an earlier round
is an upper bound on the current one. The picks and their order are the
scan's, because the keys order nodes exactly as the scan does:

- zero weight beats any positive weight, and among zero-weight nodes the
  lowest id with positive gain wins, whatever its gain. So zero-weight
  nodes go first, in one ascending pass that takes each whose gain is
  still positive: a gain that reaches 0 stays 0;
- positive weights compare gain/weight by integer cross-multiplication,
  never by float, since weights are unbounded ints;
- equal ratios go to the lower id.

Positive-weight nodes sit in a heap of such keys, each from the gain its
node had when the key was made. The top node's gain is recomputed: if it
is unchanged, no other node can beat it and it is taken; if it is 0, the
node is dropped; otherwise its key goes back with the new gain.
"""

from __future__ import annotations

import heapq

from .graph import Graph, Instance


def _gain(g: Graph, demand: dict[int, int], v: int) -> int:
    # v's own residual demand plus its neighbours that still have some
    return demand.get(v, 0) + len(demand.keys() & g.adj[v])


class _Key:
    """Heap entry for a positive-weight node: ``a < b`` when a's gain/weight
    is larger, or equal with the lower id."""

    __slots__ = ("gain", "weight", "v")

    def __init__(self, gain: int, weight: int, v: int) -> None:
        self.gain = gain
        self.weight = weight
        self.v = v

    def __lt__(self, other: _Key) -> bool:
        lhs = self.gain * other.weight
        rhs = other.gain * self.weight
        return lhs > rhs or (lhs == rhs and self.v < other.v)


def _greedy_rounds(g: Graph, m: int) -> list[int]:
    """Density-rule picks in order, for ``m >= 1``; ends once every demand is met.

    The heap never runs dry: while some demand is outstanding, an
    unselected node has positive demand, and so at least that much gain.
    A zero-weight one is taken when the ascending pass reaches it, since
    gains never grow; a positive-weight one keeps a key in the heap,
    which drops only nodes whose gain is 0.
    """
    # demand[v]: covers still owed to v; a node leaves once it is owed
    # none, and joining T clears a node's own demand
    demand = dict.fromkeys(g.nodes, m)
    order: list[int] = []

    def take(v: int) -> None:
        order.append(v)
        demand.pop(v, None)
        for w in demand.keys() & g.adj[v]:
            if demand[w] == 1:
                del demand[w]
            else:
                demand[w] -= 1

    weights = g.weights
    for v in g.nodes:
        if weights[v] == 0 and _gain(g, demand, v) > 0:
            take(v)
    heap = []
    for v in g.nodes:
        if weights[v] > 0:
            gain = _gain(g, demand, v)
            if gain > 0:
                heap.append(_Key(gain, weights[v], v))
    heapq.heapify(heap)
    while demand:
        key = heap[0]
        gain = _gain(g, demand, key.v)
        if gain == key.gain:
            heapq.heappop(heap)
            take(key.v)
        elif gain == 0:
            heapq.heappop(heap)
        else:
            key.gain = gain
            heapq.heapreplace(heap, key)
    return order


def greedy_mds(instance: Instance) -> frozenset[int]:
    """Greedy m-dominating set of the instance's graph.

    Each round takes the node with the best gain/weight, evaluated
    lazily: gains never grow, since picks only lower demands, so only the
    node on top of a heap of stale gains is recomputed. Zero weight beats
    positive weight (lowest id with positive gain first), positive ratios
    compare by integer cross-multiplication, and ties go to the lower id,
    exactly as a full scan per round picks.
    """
    return frozenset(_greedy_rounds(instance.graph, instance.m))
