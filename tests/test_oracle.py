"""Ground-truth enumeration solver."""

import random

import pytest
from hypothesis import given, strategies as st

from kmcds import Instance, OracleResult, is_k_connected, opt_kmcds, precheck

from brutes import brute_m_dominating, enumerated_opt_kmcds
from toolbox import complete_graph, cycle_graph, inst, path_graph, random_graph


def test_c5_optimum_is_three_consecutive_nodes():
    res = opt_kmcds(inst(cycle_graph(5), 1, 1))
    assert res.feasible
    assert res.members == {0, 1, 2}
    assert res.weight == 3


def test_clique_needs_every_node():
    for k in (1, 2, 3):
        g = complete_graph(k + 1)
        res = opt_kmcds(inst(g, k, k))
        assert res.members == frozenset(g.nodes)
        assert res.weight == k + 1


def test_path_has_no_biconnected_subset():
    instance = inst(path_graph(4), 2, 2)
    res = opt_kmcds(instance)
    assert not res.feasible
    assert res.members is None and res.weight is None
    assert precheck(instance) is not None


def test_examined_counts_subsets():
    res = opt_kmcds(inst(complete_graph(3), 1, 1))
    assert res.examined >= 1
    assert res.elapsed_s >= 0.0


def test_oracle_result_is_frozen():
    res = OracleResult(frozenset({0}), 1, 1, 0.0)
    with pytest.raises(AttributeError):
        res.weight = 2


def test_node_cap():
    g = complete_graph(17)
    with pytest.raises(ValueError, match="16"):
        opt_kmcds(inst(g, 1, 1))


@given(st.integers(0, 2**32 - 1))
def test_oracle_matches_literal_enumeration(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 8), 0.5)
    k = rng.randint(1, 2)
    m = rng.randint(k, k + 1)
    instance = inst(g, k, m)
    fast = opt_kmcds(instance)
    members, weight = enumerated_opt_kmcds(instance)
    assert fast.members == members
    assert fast.weight == weight


@given(st.integers(0, 2**32 - 1))
def test_result_is_feasible_and_weight_consistent(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 8), 0.6)
    k = rng.randint(1, 2)
    instance = inst(g, k, k)
    res = opt_kmcds(instance)
    if not res.feasible:
        return
    assert brute_m_dominating(g, res.members, k)
    assert is_k_connected(g.induced(res.members), k)
    assert res.weight == sum(g.weights[v] for v in res.members)
