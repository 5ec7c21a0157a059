"""Greedy minimum-weight m-dominating sets.

A set T m-dominates the graph when every node outside T has at least m
neighbors inside T. The greedy solver follows the density rule for
multicover: it repeatedly adds the node with the best ratio of residual
demand reduced to weight. Its weight stays within ln(max_degree + m) + 1
of the optimum.
"""

from __future__ import annotations

from .graph import Graph, Instance


def _greedy_rounds(g: Graph, m: int) -> list[int]:
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


def greedy_mds(instance: Instance) -> frozenset[int]:
    """Greedy m-dominating set of the instance's graph."""
    return frozenset(_greedy_rounds(instance.graph, instance.m))
