"""Tests of the benchmark's output checks on graphs whose answers are known.

Run from the root of the repository:

    python3 -m pytest benchmark/test_checks.py
"""

from __future__ import annotations

import json
from itertools import combinations

import pytest

import checks


def graph_from_edges(n, edges):
    """Graph with unit weights and k = m = 1."""
    doc = {
        "k": 1, "m": 1, "edges": [list(e) for e in edges],
        "nodes": [{"id": v, "weight": 1} for v in range(n)],
    }
    return checks.graph_from_doc(doc)


def complete(n):
    return graph_from_edges(n, combinations(range(n), 2))


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


def bridged_triangles():
    """Triangles {0, 1, 2} and {3, 4, 5} joined by the single edge 2-3."""
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    return graph_from_edges(6, edges)


def connectivity(g):
    """Largest k for which the whole graph is k-connected."""
    everyone = (1 << g.n) - 1
    k = 0
    while checks.is_k_connected(g.adj, everyone, k + 1):
        k += 1
    return k


@pytest.mark.parametrize(
    "graph, expected",
    [
        (complete(2), 1),
        (complete(5), 4),
        (cycle(3), 2),
        (cycle(7), 2),
        (petersen(), 3),
        (bridged_triangles(), 1),
        (graph_from_edges(4, [(0, 1), (2, 3)]), 0),
    ],
    ids=["K2", "K5", "C3", "C7", "petersen", "bridged-triangles", "two-edges"],
)
def test_connectivity_of_known_graphs(graph, expected):
    assert connectivity(graph) == expected


def test_k_connectivity_of_induced_subgraphs():
    g = petersen()
    outer = checks.mask_of(range(5))
    assert checks.is_k_connected(g.adj, outer, 2)  # the outer 5-cycle
    assert not checks.is_k_connected(g.adj, outer, 3)
    triangle = checks.mask_of([0, 1, 2])
    k5 = complete(5)
    assert checks.is_k_connected(k5.adj, triangle, 2)
    assert not checks.is_k_connected(k5.adj, triangle, 3)  # only 3 nodes


def test_m_domination():
    g = cycle(6)
    evens = checks.mask_of([0, 2, 4])
    assert checks.m_dominates(g.adj, g.n, evens, 2)
    assert not checks.m_dominates(g.adj, g.n, checks.mask_of([0, 2]), 1)
    assert checks.m_dominates(g.adj, g.n, (1 << g.n) - 1, 5)  # nobody outside


def test_disk_edges_use_exact_boundaries():
    coords = [("0", "0"), ("3/10", "2/5"), ("3/5", "4/5"), ("1/3", "0")]
    # |p0 - p1| = 1/2 exactly, |p1 - p2| = 1/2 exactly, |p0 - p2| = 1
    assert checks.disk_edges(coords, "1/2") == {(0, 1), (1, 2), (0, 3), (1, 3)}
    assert checks.disk_edges(coords, "499999/1000000") == {(0, 3), (1, 3)}
    assert checks.disk_edges(coords, "1/3") == {(0, 3)}
    assert checks.disk_edges(coords, "1") == set(combinations(range(4), 2))


def _report(solution, dominating, total, final_prune=True):
    return {
        "config": {"final_prune": final_prune},
        "sets": {"solution": solution, "dominating": dominating},
        "weights": {"total": total},
    }


def _graph(g, k, m):
    return checks.Graph(g.n, k, m, g.weights, g.adj, g.edges, None, None)


def test_a_minimal_feasible_report_has_no_problems():
    g = _graph(cycle(6), k=2, m=1)
    assert checks.report_problems(g, _report([0, 1, 2, 3, 4, 5], [0, 2, 4], 6)) == []


def test_report_problems_are_found():
    c6 = _graph(cycle(6), k=2, m=1)
    assert checks.report_problems(c6, _report([0, 1, 2, 3, 4, 5], [0, 2, 4], 7)) == [
        "weights.total 7 != node sum 6"
    ]
    assert checks.report_problems(c6, _report([0, 1, 2], [0, 1, 2], 3)) == [
        "dominating set does not 1-dominate",
        "solution does not 1-dominate",
        "solution does not induce a 2-connected graph",
    ]
    assert checks.report_problems(c6, _report([2, 1], [1], 2)) == [
        "solution is not a sorted list of distinct node ids"
    ]
    bridged = _graph(bridged_triangles(), k=2, m=1)
    assert checks.report_problems(bridged, _report(list(range(6)), list(range(6)), 6)) == [
        "solution does not induce a 2-connected graph"
    ]


def test_minimality_is_checked_only_after_pruning():
    k4 = _graph(complete(4), k=2, m=1)
    # dropping node 1 leaves the 2-connected triangle {0, 2, 3}, which dominates 1
    report = _report([0, 1, 2, 3], [0], 4)
    assert checks.report_problems(k4, report) == ["pruned solution is not minimal: node 1 can go"]
    report["config"]["final_prune"] = False
    assert checks.report_problems(k4, report) == []


def test_graph_from_doc_reads_an_instance_document():
    instance = {
        "k": 2, "m": 2, "radius": "1/2",
        "nodes": [
            {"id": 1, "weight": 7, "x": "1/2", "y": "0"},
            {"id": 0, "weight": 5, "x": "0", "y": "0"},
            {"id": 2, "weight": 9, "x": "1/4", "y": "1/4"},
        ],
        "edges": [[0, 1], [2, 0], [1, 2]],
    }
    g = checks.graph_from_doc(json.loads(json.dumps(instance)))
    assert (g.n, g.k, g.m, g.weights) == (3, 2, 2, (5, 7, 9))
    assert g.edges == {(0, 1), (0, 2), (1, 2)}
    assert checks.disk_edges(g.coords, g.radius) == g.edges
    assert checks.report_problems(g, _report([0, 1, 2], [0, 1, 2], 21)) == []
    instance["nodes"][0]["id"] = 3
    with pytest.raises(ValueError):
        checks.graph_from_doc(instance)
