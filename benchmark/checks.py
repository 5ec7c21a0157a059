"""Output checks computed apart from the program under test.

Everything here works on the JSON documents the program writes (instance
files and solve reports) and imports nothing from ``kmcds``, so a fault in
the solver's flow or connectivity code cannot hide behind the same fault
in the check. Node sets are bitmasks over node ids; k-connectivity is
decided straight from the definition: more than k nodes, and no set of at
most k - 1 nodes whose removal disconnects the rest (one BFS per set).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm


@dataclass(frozen=True)
class Graph:
    """Instance graph as read from an instance document."""

    n: int
    k: int
    m: int
    weights: tuple[int, ...]
    adj: tuple[int, ...]  # adj[v]: bitmask of v's neighbours
    edges: frozenset[tuple[int, int]]
    coords: tuple[tuple[str, str], ...] | None
    radius: str | None


def graph_from_doc(doc: dict) -> Graph:
    n = len(doc["nodes"])
    weights = [0] * n
    coords: list[tuple[str, str]] | None = [] if "radius" in doc else None
    for i, node in enumerate(sorted(doc["nodes"], key=lambda e: e["id"])):
        if node["id"] != i:
            raise ValueError("node ids are not dense 0..n-1")
        weights[i] = node["weight"]
        if coords is not None:
            coords.append((node["x"], node["y"]))
    adj = [0] * n
    edges = set()
    for u, v in doc["edges"]:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        edges.add((min(u, v), max(u, v)))
    return Graph(
        n, doc["k"], doc["m"], tuple(weights), tuple(adj), frozenset(edges),
        tuple(coords) if coords is not None else None, doc.get("radius"),
    )


def mask_of(nodes) -> int:
    mask = 0
    for v in nodes:
        mask |= 1 << v
    return mask


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def connected(adj, alive: int) -> bool:
    """BFS inside the node set ``alive``; True iff it is nonempty and connected."""
    if not alive:
        return False
    reach = frontier = alive & -alive
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & alive & ~reach
        reach |= frontier
    return reach == alive


def is_k_connected(adj, members: int, k: int) -> bool:
    """G[members] has more than k nodes and survives removing any k - 1 of them."""
    nodes = list(bits(members))
    if len(nodes) <= k:
        return False
    # a node with fewer than k neighbours inside is cut off by removing them
    # (a necessary condition, checked first because it is cheap)
    if any((adj[v] & members).bit_count() < k for v in nodes):
        return False
    for size in range(k):
        for removed in combinations(nodes, size):
            if not connected(adj, members & ~mask_of(removed)):
                return False
    return True


def m_dominates(adj, n: int, members: int, m: int) -> bool:
    """Every node outside ``members`` has at least m neighbours inside."""
    outside = ((1 << n) - 1) & ~members
    return all((adj[v] & members).bit_count() >= m for v in bits(outside))


def _fraction(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def disk_edges(coords, radius: str) -> set[tuple[int, int]]:
    """Unit-disk edge set from fraction strings, using integer arithmetic only.

    Coordinates are scaled to one common denominator L, so that
    ``|p_u - p_v|^2 <= r^2`` becomes ``(dX^2 + dY^2) * q^2 <= p^2 * L^2``
    for ``r = p/q`` with integer dX, dY.
    """
    parsed = [(_fraction(x), _fraction(y)) for x, y in coords]
    scale = lcm(*(d for point in parsed for _, d in point)) if parsed else 1
    pts = [(xn * (scale // xd), yn * (scale // yd)) for (xn, xd), (yn, yd) in parsed]
    rn, rd = _fraction(radius)
    lhs_scale = rd * rd
    limit = rn * rn * scale * scale
    out = set()
    for u in range(len(pts)):
        xu, yu = pts[u]
        for v in range(u + 1, len(pts)):
            dx = xu - pts[v][0]
            dy = yu - pts[v][1]
            if (dx * dx + dy * dy) * lhs_scale <= limit:
                out.add((u, v))
    return out


def report_problems(g: Graph, report: dict) -> list[str]:
    """Everything wrong with a solve report for instance ``g``."""
    sets = report["sets"]
    solution = sets["solution"]
    if sorted(set(solution)) != solution or any(not 0 <= v < g.n for v in solution):
        return ["solution is not a sorted list of distinct node ids"]
    members = mask_of(solution)
    dominating = mask_of(sets["dominating"])
    problems = []
    if dominating & ~members:
        problems.append("dominating set is not inside the solution")
    if not m_dominates(g.adj, g.n, dominating, g.m):
        problems.append(f"dominating set does not {g.m}-dominate")
    if not m_dominates(g.adj, g.n, members, g.m):
        problems.append(f"solution does not {g.m}-dominate")
    if not is_k_connected(g.adj, members, g.k):
        problems.append(f"solution does not induce a {g.k}-connected graph")
    total = sum(g.weights[v] for v in solution)
    if report["weights"]["total"] != total:
        problems.append(f"weights.total {report['weights']['total']} != node sum {total}")
    if problems or not report["config"]["final_prune"]:
        return problems
    for v in bits(members & ~dominating):
        rest = members & ~(1 << v)
        if m_dominates(g.adj, g.n, rest, g.m) and is_k_connected(g.adj, rest, g.k):
            problems.append(f"pruned solution is not minimal: node {v} can go")
            break
    return problems

