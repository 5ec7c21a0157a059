"""Greedy m-dominating set and its exact oracle."""

import random

import pytest
from hypothesis import given, strategies as st

from kmcds import degree_stats, greedy_mds

from brutes import brute_m_dominating, coverage_potential, greedy_mds_order, opt_mds_bruteforce
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
