"""Small named graphs, instance builders and a subprocess runner shared across tests."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import kmcds
from kmcds import Graph, Instance, RootedProblem, domination_counts, find_k_connectivity_violation


def run_python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args`` with this kmcds importable, under ``timeout`` seconds.

    A run that outlasts it raises ``subprocess.TimeoutExpired``, so a hang fails its test.
    """
    src = str(Path(kmcds.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": path},
    )


def root_problem(g_r: Graph, root: int, k: int) -> RootedProblem:
    """Every node but ``root`` a terminal, empty pool: for k-in-connectivity checks."""
    others = tuple(v for v in g_r.nodes if v != root)
    return RootedProblem(graph_r=g_r, root=root, terminals=others, pool=(), k=k)


def path_graph(n: int, weights=None) -> Graph:
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)], _w(n, weights))


def cycle_graph(n: int, weights=None) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(range(n), edges, _w(n, weights))


def complete_graph(n: int, weights=None) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(range(n), edges, _w(n, weights))


def star_graph(leaves: int, weights=None) -> Graph:
    """Node 0 is the center, 1..leaves are the leaves."""
    return Graph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)],
                 _w(leaves + 1, weights))


def wheel_graph(rim: int, weights=None) -> Graph:
    """Hub 0 plus a cycle on 1..rim, every rim node tied to the hub."""
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return Graph(range(rim + 1), edges, _w(rim + 1, weights))


def petersen(weights=None) -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(range(10), outer + spokes + inner, _w(10, weights))


def two_triangles_bridged() -> Graph:
    """Triangles {0,1,2} and {3,4,5} joined by the single edge 2-3."""
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    return Graph(range(6), edges)


def _w(n: int, weights) -> dict[int, int]:
    if weights is None:
        return {v: 1 for v in range(n)}
    if isinstance(weights, dict):
        return weights
    return dict(enumerate(weights))


def inst(g: Graph, k: int, m: int) -> Instance:
    return Instance(graph=g, k=k, m=m)


def random_graph(rng: random.Random, n: int, p: float, max_weight: int = 9) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    weights = {v: rng.randint(0, max_weight) for v in range(n)}
    return Graph(range(n), edges, weights)


def _primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    found: list[int] = []
    p = 2
    while len(found) < count:
        if all(p % q for q in found if q * q <= p):
            found.append(p)
        p += 1
    return found


def coprime_disk_points(n: int, seed: int = 0) -> list[tuple[Fraction, Fraction]]:
    """``n`` points in the unit square whose 2n coordinate denominators are
    distinct primes, so no two coordinates share a denominator."""
    rng = random.Random(seed)
    ps = _primes(2 * n + 2)[2:]  # skip 2 and 3: every coordinate has 5+ choices
    return [
        (Fraction(rng.randrange(1, ps[2 * i]), ps[2 * i]),
         Fraction(rng.randrange(1, ps[2 * i + 1]), ps[2 * i + 1]))
        for i in range(n)
    ]


def breaking_prune(instance, members, protected, net):
    """A faulty final prune: drops a node whose loss breaks k-connectivity only.

    It asks its trials on ``net``, the network the certificate then runs on.
    """
    g = instance.graph
    for v in sorted(members):
        trial = members - {v}
        counts = domination_counts(g, trial).values()
        if all(c >= instance.m for c in counts) and find_k_connectivity_violation(
            g, instance.k, members=trial, net=net
        ) is not None:
            members.discard(v)
            return [v]
    raise AssertionError("every node is either needed for domination or removable")
