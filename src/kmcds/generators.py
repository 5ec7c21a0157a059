"""Deterministic random instance generators.

Both generators draw from a single ``random.Random(seed)`` stream in a
documented order, so a (generator, arguments, seed) triple pins the
instance bit-exactly across runs and platforms.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .graph import Instance, read_exact

_GRID = 10**6  # coordinate denominator: 10^-6 resolution on the unit square


def _checked_weights(n: int, weight_range: tuple[int, int]) -> tuple[int, int]:
    """``weight_range`` as (lo, hi), once ``n`` and it pass the checks both generators share."""
    if n < 1:
        raise ValueError("need at least one node")
    lo, hi = weight_range
    if lo < 0 or hi < lo:
        raise ValueError("weight range must be 0 <= lo <= hi")
    return lo, hi


def gen_gnp(
    n: int,
    p: float,
    weight_range: tuple[int, int] = (1, 100),
    seed: int = 0,
    k: int = 1,
    m: int = 1,
) -> Instance:
    """Erdos-Renyi instance: each pair independently an edge with chance p.

    Draw order: one uniform draw per node pair (i < j, lexicographic),
    then one integer weight per node in id order.
    """
    lo, hi = _checked_weights(n, weight_range)
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    weights = [rng.randint(lo, hi) for _ in range(n)]
    return Instance.general(n, edges, weights, k, m)


def gen_unit_disk(
    n: int,
    radius: Fraction | int | str,
    weight_range: tuple[int, int] = (1, 100),
    seed: int = 0,
    k: int = 1,
    m: int = 1,
) -> Instance:
    """Random geometric instance: points in the unit square, exact edge rule.

    Coordinates are uniform multiples of 10^-6, kept as exact fractions;
    the edges come from the exact integer disk rule of
    :meth:`Instance.unit_disk`, so no distance is rounded; the radius is
    read by :func:`~kmcds.graph.read_exact`, which refuses floats. Draw
    order: x then y per node in id order, then one integer weight per node.
    """
    lo, hi = _checked_weights(n, weight_range)
    r = read_exact(radius, "radius")  # before any draw
    rng = random.Random(seed)
    coords = []
    for _ in range(n):
        x = Fraction(rng.randrange(_GRID + 1), _GRID)
        y = Fraction(rng.randrange(_GRID + 1), _GRID)
        coords.append((x, y))
    weights = [rng.randint(lo, hi) for _ in range(n)]
    return Instance.unit_disk(coords, r, weights, k, m)
