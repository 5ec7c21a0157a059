"""Immutable node-weighted undirected graphs and problem instances.

Node identities are nonnegative integers and survive induced-subgraph
extraction: node 7 of a subgraph is node 7 of the parent. Weights are
nonnegative integers throughout; fractional user input is scaled to
integers at parse time (see :mod:`kmcds.serialize`) so that all weight
comparisons stay exact. Geometric instances carry exact rational
coordinates and derive their edge set from the disk rule
``dist(u, v)^2 <= radius^2``, tested in exact integer arithmetic on the
pairs that grid cells of side ``radius`` leave as candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping


class Graph:
    """Simple undirected graph over integer node ids, immutable after build.

    Args:
        nodes: iterable of distinct nonnegative node ids.
        edges: iterable of 2-tuples; loops and duplicates are rejected.
        weights: mapping id -> nonnegative int weight; missing ids get 0.
    """

    __slots__ = ("nodes", "edges", "weights", "adj", "_node_set")

    def __init__(
        self,
        nodes: Iterable[int],
        edges: Iterable[tuple[int, int]],
        weights: Mapping[int, int] | None = None,
    ) -> None:
        node_tuple = tuple(sorted(nodes))
        node_set = frozenset(node_tuple)
        if len(node_tuple) != len(node_set):
            raise ValueError("duplicate node ids")
        if node_tuple and node_tuple[0] < 0:
            raise ValueError("node ids must be nonnegative")

        adj: dict[int, set[int]] = {v: set() for v in node_tuple}
        canon: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u}, {v}) leaves the node set")
            e = (u, v) if u < v else (v, u)
            if e in canon:
                raise ValueError(f"duplicate edge {e}")
            canon.add(e)
            adj[u].add(v)
            adj[v].add(u)

        w: dict[int, int] = {}
        weights = weights or {}
        for v in node_tuple:
            wv = weights.get(v, 0)
            if not isinstance(wv, int) or isinstance(wv, bool):
                raise ValueError(f"weight of node {v} must be an integer")
            if wv < 0:
                raise ValueError(f"weight of node {v} is negative")
            w[v] = wv

        object.__setattr__(self, "nodes", node_tuple)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "adj", {v: tuple(sorted(s)) for v, s in adj.items()})
        object.__setattr__(self, "_node_set", node_set)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def has_node(self, v: int) -> bool:
        return v in self._node_set

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def total_weight(self, members: Iterable[int] | None = None) -> int:
        if members is None:
            return sum(self.weights.values())
        return sum(self.weights[v] for v in members)

    def sorted_members(self, members: Iterable[int]) -> tuple[int, ...]:
        """``members`` sorted and distinct; a ValueError lists any, of any type, not in the graph."""
        keep = set(members)
        stray = [v for v in keep if v not in self._node_set]
        if stray:
            shown = sorted(stray, key=lambda v: (0, v) if isinstance(v, int) else (1, repr(v)))
            raise ValueError(f"nodes {shown} not in graph")
        return tuple(sorted(keep))

    def induced(self, members: Iterable[int]) -> "Graph":
        keep = frozenset(self.sorted_members(members))
        kept_edges = [(u, v) for u, v in self.edges if u in keep and v in keep]
        return Graph(keep, kept_edges, {v: self.weights[v] for v in keep})


def attach_root(g: Graph, attachment: Iterable[int], k: int) -> tuple[Graph, int]:
    """Add a zero-weight virtual root adjacent to exactly ``attachment``.

    The root takes id one past the largest existing id. ``attachment``
    must contain exactly ``k`` distinct existing nodes.
    """
    att = sorted(set(attachment))
    if len(att) != k:
        raise ValueError(f"attachment must have exactly {k} nodes, got {len(att)}")
    for v in att:
        if not g.has_node(v):
            raise ValueError(f"attachment node {v} not in graph")
    root = (max(g.nodes) + 1) if g.nodes else 0
    weights = dict(g.weights)
    weights[root] = 0
    edges = list(g.edges) + [(v, root) for v in att]
    return Graph(list(g.nodes) + [root], edges, weights), root


def degree_stats(g: Graph) -> tuple[int, int]:
    """(min degree, max degree); (0, 0) for an empty graph."""
    if not g.nodes:
        return (0, 0)
    degs = [len(g.adj[v]) for v in g.nodes]
    return (min(degs), max(degs))


def read_exact(value: Fraction | int | str, what: str) -> Fraction:
    """``value`` as a Fraction: an int, a Fraction, or a string such as "3/10", "0.3" or "-2".

    The one reader of outside numbers. Anything else (bools, floats, zero
    denominators, exponents, which Fraction would write out digit by digit)
    is a ValueError naming ``what`` and quoting at most 40 characters.
    """
    if isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool)):
        return Fraction(value)
    if isinstance(value, str) and "e" not in value and "E" not in value:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    shown = repr(value)
    shown = shown if len(shown) <= 40 else shown[:37] + "..."
    raise ValueError(
        f'{what} {shown} must be an int, a Fraction or a string such as "3/10", '
        "with no exponent and a nonzero denominator"
    )


# the least int of 4301 digits: Python writes ints of up to 4300 digits
# as text by default, so an instance must keep its numbers below it
_DIGITS_CAP = 10**4300
_TOO_LONG = "has a numerator or denominator of more than 4300 digits"


def _disk_edges(
    coords: Mapping[int, tuple[Fraction, Fraction]], radius: Fraction
) -> list[tuple[int, int]]:
    """Sorted pairs ``(u, v)``, ``u < v``, with ``dist(u, v) <= radius``.

    Every disk instance's numbers are checked here, before any pair is
    compared: a negative radius, or a radius or coordinate whose numerator
    or denominator has more than 4300 digits, is a ValueError.

    Points are bucketed into square cells of side ``s`` (``radius``, or 1
    when the radius is 0), so a point is compared only with the points of
    the 3x3 block of cells around its own (fixed-radius near neighbours,
    Bentley, Stanat & Williams 1977); any ``s >= radius`` would do. With
    ``x = a/b``, ``y = c/d`` and ``radius = rn/rd``, a pair is kept when
    ``(((a*b' - a'*b)*d*d')**2 + ((c*d' - c'*d)*b*b')**2) * rd**2
    <= rn**2 * (b*b'*d*d')**2``: the squared-distance rule with every
    denominator multiplied out, in exact integers. Each pair uses its own
    denominators; one common denominator for all points can grow with n.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rn, rd = radius.numerator, radius.denominator
    if max(rn, rd) >= _DIGITS_CAP:
        raise ValueError(f"radius {_TOO_LONG}")
    sn, sd = (rn, rd) if rn else (1, 1)
    rn2, rd2 = rn * rn, rd * rd
    cells: dict[tuple[int, int], list[tuple[int, int, int, int, int]]] = {}
    for v, (x, y) in coords.items():
        a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
        if max(abs(a), b, abs(c), d) >= _DIGITS_CAP:
            raise ValueError(f"coordinate of node {v} {_TOO_LONG}")
        cell = ((a * sd) // (b * sn), (c * sd) // (d * sn))
        cells.setdefault(cell, []).append((v, a, b, c, d))

    out = []
    for (cx, cy), here in cells.items():
        # this cell, then the half of its 3x3 block that lies ahead of it;
        # the other half scans this cell when its own turn comes
        block = here + [
            p
            for key in ((cx, cy + 1), (cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1))
            for p in cells.get(key, ())
        ]
        for i, (v, a, b, c, d) in enumerate(here):
            for w, a2, b2, c2, d2 in block[i + 1:]:
                bb, dd = b * b2, d * d2
                dx, dy = (a * b2 - a2 * b) * dd, (c * d2 - c2 * d) * bb
                if (dx * dx + dy * dy) * rd2 <= rn2 * (bb * dd) ** 2:
                    out.append((v, w) if v < w else (w, v))
    out.sort()
    return out


# the graph Instance.unit_disk built by the disk rule, set only while it builds its Instance
_ruled_graph: Graph | None = None


@dataclass(frozen=True, slots=True)
class Instance:
    """A solver input: weighted graph plus connectivity/domination targets.

    ``coords`` and ``radius`` are both present for unit-disk instances and
    both absent otherwise. Node ids are dense ``0..n-1``. ``m >= k >= 1``
    always holds. ``weight_denominator`` records the scale applied to
    fractional input weights (internal weights are the scaled integers).
    """

    graph: Graph
    k: int
    m: int
    coords: tuple[tuple[Fraction, Fraction], ...] | None = None
    radius: Fraction | None = None
    weight_denominator: int = 1

    def __post_init__(self) -> None:
        g = self.graph
        if g.nodes != tuple(range(g.n)):
            raise ValueError("instance node ids must be dense 0..n-1")
        for name in ("k", "m", "weight_denominator"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name.replace('_', ' ')} must be an int, not {value!r:.40}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.m < self.k:
            raise ValueError("m must be at least k")
        if self.weight_denominator < 1:
            raise ValueError("weight denominator must be positive")
        if (self.coords is None) != (self.radius is None):
            raise ValueError("coords and radius must be given together")
        if self.coords is not None:
            if len(self.coords) != g.n:
                raise ValueError("one coordinate pair per node required")
            for c in (self.radius, *(c for pt in self.coords for c in pt)):
                if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                    raise ValueError(f"radius and coordinates must be ints or Fractions, not {c!r}")
            if g is not _ruled_graph:
                want = _disk_edges(dict(enumerate(self.coords)), self.radius)
                if tuple(want) != g.edges:
                    raise ValueError("edge set disagrees with the disk rule")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def is_geometric(self) -> bool:
        return self.coords is not None

    @staticmethod
    def general(
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Iterable[int],
        k: int,
        m: int,
        denominator: int = 1,
    ) -> "Instance":
        w = list(weights)
        if len(w) != n:
            raise ValueError("one weight per node required")
        g = Graph(range(n), edges, dict(enumerate(w)))
        return Instance(graph=g, k=k, m=m, weight_denominator=denominator)

    @staticmethod
    def unit_disk(
        coords: Iterable[tuple[Fraction | int | str, Fraction | int | str]],
        radius: Fraction | int | str,
        weights: Iterable[int],
        k: int,
        m: int,
        denominator: int = 1,
    ) -> "Instance":
        """A disk instance; every number goes through :func:`read_exact`."""
        pts = tuple((read_exact(x, "coordinate"), read_exact(y, "coordinate")) for x, y in coords)
        radius = read_exact(radius, "radius")
        w = list(weights)
        if len(w) != len(pts):
            raise ValueError("one weight per node required")
        edges = _disk_edges(dict(enumerate(pts)), radius)
        global _ruled_graph
        _ruled_graph = g = Graph(range(len(pts)), edges, dict(enumerate(w)))
        try:
            return Instance(
                graph=g, k=k, m=m, coords=pts, radius=radius, weight_denominator=denominator
            )
        finally:
            _ruled_graph = None
