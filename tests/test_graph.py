"""Graph and Instance construction, validation, and geometry."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import kmcds.graph as graph_mod
from kmcds import Graph, Instance, ParseError, attach_root, degree_stats, dump_instance
from kmcds import gen_unit_disk, load_instance
from kmcds.graph import _disk_edges

from brutes import brute_disk_edges, neighbors, without_edges
from toolbox import (
    complete_graph, coprime_disk_points, path_graph, random_graph, star_graph, with_edges,
)


def test_rejects_duplicate_nodes():
    with pytest.raises(ValueError):
        Graph([0, 1, 1], [])


def test_rejects_negative_ids():
    with pytest.raises(ValueError):
        Graph([-1, 0], [])


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 0)])


def test_rejects_duplicate_edge_even_reversed():
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 1), (1, 0)])


def test_rejects_edge_outside_node_set():
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 2)])


def test_rejects_negative_and_non_integer_weights():
    with pytest.raises(ValueError):
        Graph([0], [], {0: -1})
    with pytest.raises(ValueError):
        Graph([0], [], {0: 1.5})
    with pytest.raises(ValueError):
        Graph([0], [], {0: True})


def test_graph_is_immutable():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.nodes = ()


def test_adjacency_is_sorted_and_symmetric():
    g = Graph([0, 1, 2], [(2, 0), (1, 0)])
    assert g.adj[0] == (1, 2)
    assert g.adj[1] == (0,)
    assert g.edges == ((0, 1), (0, 2))
    assert g.has_edge(2, 0) and g.has_edge(0, 2)


def test_missing_weights_default_to_zero():
    g = Graph([0, 1], [(0, 1)], {0: 5})
    assert g.weights[1] == 0
    assert g.total_weight() == 5
    assert g.total_weight([1]) == 0


def test_induced_preserves_identity():
    g = complete_graph(5)
    sub = g.induced({1, 3, 4})
    assert sub.nodes == (1, 3, 4)
    assert sub.edges == ((1, 3), (1, 4), (3, 4))


def test_induced_rejects_foreign_nodes():
    with pytest.raises(ValueError):
        path_graph(3).induced({0, 7})


def test_union_and_without_edges():
    g = path_graph(3)
    g2 = with_edges(g, [(0, 2), (1, 0)])
    assert g2.edges == ((0, 1), (0, 2), (1, 2))
    g3 = without_edges(g2, [(2, 0)])
    assert g3.edges == g.edges


def test_neighbors_of_set():
    g = star_graph(4)
    assert neighbors(g, [0]) == frozenset({1, 2, 3, 4})
    assert neighbors(g, [1, 2]) == frozenset({0})
    assert neighbors(g, g.nodes) == frozenset()


def test_attach_root_basics():
    g = path_graph(4)
    g_r, root = attach_root(g, [0, 3], 2)
    assert root == 4
    assert g_r.weights[root] == 0
    assert g_r.adj[root] == (0, 3)
    with pytest.raises(ValueError):
        attach_root(g, [0], 2)
    with pytest.raises(ValueError):
        attach_root(g, [0, 9], 2)


def test_degree_stats():
    assert degree_stats(Graph([], [])) == (0, 0)
    assert degree_stats(star_graph(3)) == (1, 3)


def test_instance_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        Instance(graph=g, k=0, m=1)
    with pytest.raises(ValueError):
        Instance(graph=g, k=2, m=1)  # m < k
    sparse = Graph([0, 2], [])
    with pytest.raises(ValueError):
        Instance(graph=sparse, k=1, m=1)  # ids not dense


def test_unit_disk_edges_are_exact_at_the_boundary():
    # (0,0)-(3/5,4/5) sits at distance exactly 1: included at radius 1,
    # excluded a hair below
    pts = [(Fraction(0), Fraction(0)), (Fraction(3, 5), Fraction(4, 5))]
    on = Instance.unit_disk(pts, Fraction(1), [1, 1], 1, 1)
    assert on.graph.edges == ((0, 1),)
    off = Instance.unit_disk(pts, Fraction(999999, 1000000), [1, 1], 1, 1)
    assert off.graph.edges == ()


# mixed denominators, small primes among them so that some pairs are coprime
_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 30)
_coordinates = st.builds(Fraction, st.integers(-40, 40), st.sampled_from(_DENOMINATORS))
# scaled 3-4-5 offsets: a partner at exactly the radius, in every direction
_ON_CIRCLE = ((3, 4), (4, 3), (-3, 4), (4, -3), (-4, -3), (5, 0), (0, -5))


@st.composite
def _disk_layouts(draw):
    radius = draw(st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(1, 30), st.sampled_from(_DENOMINATORS)),
    ))
    pts = draw(st.lists(st.tuples(_coordinates, _coordinates), min_size=1, max_size=12))
    for kind in draw(st.lists(st.sampled_from(("copy", "circle", "cell")), max_size=8)):
        if kind == "copy":  # a coincident point
            pts.append(draw(st.sampled_from(pts)))
        elif kind == "circle":  # a point at distance exactly radius
            x, y = draw(st.sampled_from(pts))
            sx, sy = draw(st.sampled_from(_ON_CIRCLE))
            pts.append((x + radius * sx / 5, y + radius * sy / 5))
        else:  # a point on cell boundaries: whole multiples of the radius
            pts.append((radius * draw(st.integers(-4, 4)), radius * draw(st.integers(-4, 4))))
    order = draw(st.permutations(range(len(pts))))
    return {v: pts[i] for v, i in enumerate(order)}, radius


@settings(max_examples=300)
@given(_disk_layouts())
def test_disk_rule_matches_the_fraction_reference(layout):
    coords, radius = layout
    assert _disk_edges(coords, radius) == brute_disk_edges(coords, radius)


def test_disk_rule_on_pairwise_coprime_denominators():
    pts = coprime_disk_points(60, seed=3)
    instance = Instance.unit_disk(pts, Fraction(1, 5), [1] * 60, 1, 1)
    want = brute_disk_edges(dict(enumerate(pts)), Fraction(1, 5))
    assert len(want) > 60
    assert instance.graph.edges == tuple(want)


def test_instance_coord_edge_agreement_enforced():
    pts = ((Fraction(0), Fraction(0)), (Fraction(3), Fraction(0)))
    g_bad = Graph([0, 1], [(0, 1)], {0: 1, 1: 1})
    with pytest.raises(ValueError):
        Instance(graph=g_bad, k=1, m=1, coords=pts, radius=Fraction(1))


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_induced_on_everything_is_identity(seed, n):
    import random

    g = random_graph(random.Random(seed), n, 0.5)
    sub = g.induced(g.nodes)
    assert sub.nodes == g.nodes
    assert sub.edges == g.edges
    assert sub.weights == g.weights


@given(st.integers(0, 2**32 - 1))
def test_neighbors_never_intersects_members(seed):
    import random

    rng = random.Random(seed)
    g = random_graph(rng, 7, 0.4)
    members = frozenset(v for v in g.nodes if rng.random() < 0.5)
    out = neighbors(g, members)
    assert not (out & members)
    assert all(any(w in members for w in g.adj[v]) for v in out)


def test_disk_rule_runs_once_per_instance_and_checks_every_outside_graph(monkeypatch):
    calls = []

    def counted(coords, radius):
        calls.append(len(coords))
        return _disk_edges(coords, radius)

    monkeypatch.setattr(graph_mod, "_disk_edges", counted)
    instance = gen_unit_disk(30, Fraction(3, 10), (1, 9), 4, 1, 1)
    assert len(instance.graph.edges) > 1
    assert calls == [30]  # derived once, not again to validate
    doc = json.loads(dump_instance(instance))
    assert load_instance(json.dumps(doc)).graph.edges == instance.graph.edges
    assert calls == [30] * 2  # a parsed file is checked against the rule
    doc["edges"].pop(0)
    with pytest.raises(ParseError, match="edge set disagrees with the disk rule"):
        load_instance(json.dumps(doc))
    wrong = Graph(range(30), instance.graph.edges[1:])
    spread = tuple((10 * x, 10 * y) for x, y in instance.coords)
    # the coords and radius unit_disk used, equal copies of them, and the
    # very graph it built under points the rule leaves apart
    for graph, coords, radius in (
        (wrong, instance.coords, instance.radius),
        (wrong, tuple(instance.coords), Fraction(3, 10)),
        (instance.graph, spread, instance.radius),
    ):
        with pytest.raises(ValueError, match="edge set disagrees with the disk rule"):
            Instance(graph=graph, k=1, m=1, coords=coords, radius=radius)
    assert calls == [30] * 6
