"""Greedy m-dominating set and its exact oracle."""

import random

import pytest
from hypothesis import given, strategies as st

import kmcds.domset
from kmcds import Graph, degree_stats, gen_gnp, greedy_mds

from brutes import (
    brute_m_dominating,
    coverage_potential,
    greedy_mds_order,
    opt_mds_bruteforce,
    scan_greedy_rounds,
)
from exactbounds import within_ln_plus_one
from toolbox import complete_graph, cycle_graph, inst, random_graph, star_graph


def test_star_m1_takes_the_center():
    assert greedy_mds(inst(star_graph(5), 1, 1)) == {0}
    assert opt_mds_bruteforce(inst(star_graph(5), 1, 1)) == {0}


def test_star_m2_greedy_versus_optimum():
    # the density rule grabs the center first (gain 7 beats any leaf's 3)
    # and then must buy every leaf anyway: weight 6 against the optimal 5
    problem = inst(star_graph(5), 1, 2)
    assert greedy_mds(problem) == {0, 1, 2, 3, 4, 5}
    opt = opt_mds_bruteforce(problem)
    assert opt == {1, 2, 3, 4, 5}
    assert within_ln_plus_one(6, 5, degree_stats(star_graph(5))[1] + 2)


def test_k4_m3():
    problem = inst(complete_graph(4), 1, 3)
    assert greedy_mds(problem) == {0, 1, 2}
    assert opt_mds_bruteforce(problem) == {0, 1, 2}


def test_c5_greedy_matches_oracle():
    # domination alone is cheaper than the connected variant: {0,2} covers
    # everything at weight 2 (the connected optimum needs three nodes)
    problem = inst(cycle_graph(5), 1, 1)
    assert opt_mds_bruteforce(problem) == {0, 2}
    assert greedy_mds(problem) == {0, 2}


def test_oracle_tie_break_is_lexicographic():
    # several weight-2 sets 1-dominate C4; lex order picks {0,1}
    assert opt_mds_bruteforce(inst(cycle_graph(4), 1, 1)) == {0, 1}


def test_oracle_size_cap():
    with pytest.raises(ValueError):
        opt_mds_bruteforce(inst(cycle_graph(17), 1, 1))


def test_zero_weight_nodes_go_first():
    g = star_graph(3, weights=[9, 0, 0, 0])
    t = greedy_mds(inst(g, 1, 1))
    assert t == {1, 2, 3}
    assert sum(g.weights[v] for v in t) == 0


def test_potential_climbs_strictly():
    g = random_graph(random.Random(5), 9, 0.4)
    problem = inst(g, 1, 2)
    order = greedy_mds_order(problem)
    members: frozenset[int] = frozenset()
    last = coverage_potential(g, members, 2)
    for v in order:
        members |= {v}
        now = coverage_potential(g, members, 2)
        assert now > last
        last = now
    assert last == 2 * g.n  # full potential exactly at feasibility


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_greedy_is_feasible_and_within_log_bound(seed, m):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 10), 0.5)
    problem = inst(g, 1, m)
    t = greedy_mds(problem)
    assert brute_m_dominating(g, t, m)
    opt = opt_mds_bruteforce(problem)
    assert brute_m_dominating(g, opt, m)
    w_greedy = sum(g.weights[v] for v in t)
    w_opt = sum(g.weights[v] for v in opt)
    assert w_opt <= w_greedy
    assert within_ln_plus_one(w_greedy, w_opt, degree_stats(g)[1] + m)


# weights 0-1, 0-3, 0-30, 1-30, all zero, and around 2**60, where two
# ratios can round to the same float
_WEIGHT_RANGES = [(0, 1), (0, 3), (0, 30), (1, 30), (0, 0), (2**60 - 8, 2**60 + 8)]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.floats(0.05, 0.7),
    st.integers(1, 4),
    st.sampled_from(_WEIGHT_RANGES),
    st.integers(0, 6),
    st.booleans(),
)
def test_lazy_picks_match_the_scan(seed, n, p, m, weight_range, isolated, split):
    rng = random.Random(seed)
    # ids with gaps; the first `isolated` get no edge, and a split puts no
    # edge between the two halves of the rest
    ids = sorted(rng.sample(range(4 * n), n))
    isolated = min(isolated, n - 1)
    rest = ids[isolated:]
    half = len(rest) // 2 if split else len(rest)
    parts = [rest[:half], rest[half:]]
    edges = [
        (u, v)
        for part in parts
        for i, u in enumerate(part)
        for v in part[i + 1 :]
        if rng.random() < p
    ]
    g = Graph(ids, edges, {v: rng.randint(*weight_range) for v in ids})
    order = kmcds.domset._greedy_rounds(g, m)
    assert order == scan_greedy_rounds(g, m)
    assert brute_m_dominating(g, order, m)


def test_ratios_compare_exactly_above_2_to_the_53():
    # 4/(2**60 + 1) and 4/2**60 round to the same float; exactly, node 1's
    # ratio is larger, and it covers everything alone
    w0, w1 = 2**60 + 1, 2**60
    assert 4 / w0 == 4 / w1
    g = Graph(
        range(4),
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
        {0: w0, 1: w1, 2: 2**62, 3: 2**62},
    )
    assert kmcds.domset._greedy_rounds(g, 1) == scan_greedy_rounds(g, 1) == [1]


def test_equal_ratios_go_to_the_lower_id():
    # nodes 0 and 1 both have gain 4 at weight 5, and either covers all
    g = Graph(
        range(4),
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
        {0: 5, 1: 5, 2: 100, 3: 100},
    )
    assert kmcds.domset._greedy_rounds(g, 1) == scan_greedy_rounds(g, 1) == [0]


def test_zero_weight_lowest_id_beats_a_larger_gain():
    # star centred on 1: leaf 0 (gain 2) comes before the centre (gain 5),
    # so both are bought, where the centre alone would do
    g = Graph(range(5), [(1, 0), (1, 2), (1, 3), (1, 4)], {0: 0, 1: 0, 2: 5, 3: 5, 4: 5})
    assert kmcds.domset._greedy_rounds(g, 1) == scan_greedy_rounds(g, 1) == [0, 1]


def test_a_stale_key_that_fell_goes_back_and_is_taken_later():
    # 0 covers 2-5 and goes first; node 1's stale gain 4 (ties with 6, lower
    # id) falls to 1 once 2-4 are covered, so 6 goes next and 1 goes last
    g = Graph(
        range(10),
        [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (6, 7), (6, 8), (6, 9)],
        {0: 1, 1: 1, 6: 1, **{v: 10 for v in (2, 3, 4, 5, 7, 8, 9)}},
    )
    assert kmcds.domset._greedy_rounds(g, 1) == scan_greedy_rounds(g, 1) == [0, 6, 1]


def test_gain_evaluations_stay_under_10n(monkeypatch):
    # a full scan evaluates every unselected node in every round: about
    # 40,600 gains here, against about 1500 for the lazy rounds
    instance = gen_gnp(400, 0.04, (1, 100), 0, 3, 3)
    calls = []
    gain = kmcds.domset._gain

    def counted(g, demand, v):
        calls.append(v)
        return gain(g, demand, v)

    monkeypatch.setattr(kmcds.domset, "_gain", counted)
    order = kmcds.domset._greedy_rounds(instance.graph, instance.m)
    assert order == scan_greedy_rounds(instance.graph, instance.m)
    assert len(order) <= len(calls) < 10 * instance.graph.n
