"""Seeded instance generators."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kmcds import gen_gnp, gen_unit_disk


def test_same_seed_same_instance():
    a = gen_gnp(12, 0.4, (1, 50), seed=7, k=2, m=2)
    b = gen_gnp(12, 0.4, (1, 50), seed=7, k=2, m=2)
    assert a.graph.edges == b.graph.edges
    assert a.graph.weights == b.graph.weights

    c = gen_unit_disk(12, Fraction(1, 2), (1, 50), seed=7, k=2, m=2)
    d = gen_unit_disk(12, Fraction(1, 2), (1, 50), seed=7, k=2, m=2)
    assert c.coords == d.coords
    assert c.graph.edges == d.graph.edges


def test_different_seeds_differ():
    a = gen_gnp(12, 0.5, (1, 50), seed=0)
    b = gen_gnp(12, 0.5, (1, 50), seed=1)
    assert a.graph.edges != b.graph.edges or a.graph.weights != b.graph.weights


def test_extreme_densities():
    full = gen_gnp(8, 1.0, (1, 1), seed=3)
    assert len(full.graph.edges) == 28
    empty = gen_gnp(8, 0.0, (1, 1), seed=3)
    assert empty.graph.edges == ()


def test_extreme_radii():
    far = gen_unit_disk(6, 2, (1, 1), seed=5)
    assert len(far.graph.edges) == 15  # the unit square fits inside radius 2
    near = gen_unit_disk(6, 0, (1, 1), seed=5)
    assert near.graph.edges == ()


def test_coords_are_grid_fractions():
    inst = gen_unit_disk(10, Fraction(1, 4), (1, 9), seed=2)
    for x, y in inst.coords:
        assert 0 <= x <= 1 and 0 <= y <= 1
        assert (x * 10**6).denominator == 1
        assert (y * 10**6).denominator == 1


@given(st.integers(0, 2**16), st.integers(1, 12))
def test_weights_stay_in_range(seed, n):
    inst = gen_gnp(n, 0.5, (3, 9), seed=seed)
    assert all(3 <= w <= 9 for w in inst.graph.weights.values())


def test_parameters_are_checked():
    refused = [
        (lambda: gen_gnp(0, 0.5, (1, 9), seed=0), "need at least one node"),
        (lambda: gen_unit_disk(0, "1/2", (1, 9), seed=0), "need at least one node"),
        (lambda: gen_gnp(5, 0.5, (9, 1), seed=0), "weight range must be 0 <= lo <= hi"),
        (lambda: gen_unit_disk(5, "1/2", (9, 1), seed=0), "weight range must be 0 <= lo <= hi"),
        (lambda: gen_gnp(5, 0.5, (-1, 9), seed=0), "weight range must be 0 <= lo <= hi"),
        (lambda: gen_unit_disk(5, "1/2", (-1, 9), seed=0), "weight range must be 0 <= lo <= hi"),
        (lambda: gen_gnp(5, 1.5, (1, 9), seed=0), "edge probability must lie in [0, 1]"),
        (lambda: gen_unit_disk(5, -1, (1, 9), seed=0), "radius must be nonnegative"),
    ]
    for call, message in refused:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_instance_parameters_carry_through():
    inst = gen_gnp(6, 0.5, (1, 9), seed=0, k=2, m=3)
    assert (inst.k, inst.m) == (2, 3)
    disk = gen_unit_disk(6, Fraction(1, 2), (1, 9), seed=0, k=2, m=2)
    assert disk.is_geometric and disk.radius == Fraction(1, 2)
