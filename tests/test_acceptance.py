"""Acceptance gate: nine checks, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
happen; without ``-s`` they appear in the captured-output section of any
failure. Everything is seeded, so reruns are bit-for-bit repeatable.
"""

import random
import statistics
import time
from fractions import Fraction

import pytest

from kmcds import (
    Graph,
    SolverConfig,
    degree_stats,
    dump_report,
    gen_gnp,
    gen_unit_disk,
    greedy_mds,
    is_k_connected,
    opt_kmcds,
    precheck,
    solve_general,
    solve_guess_root,
    solve_unit_disk,
)
import kmcds.solver as solver_mod
from kmcds.augment import _is_forest
from kmcds.rooted import find_infeasible_terminal

from brutes import (
    brute_m_dominating,
    check_cut_characterization,
    is_k_T_connected,
    opt_mds_bruteforce,
)
from exactbounds import within_ln_plus_one
from toolbox import random_graph, root_problem

CFG = SolverConfig(collect_witnesses=False)

# sizes lean small so the suite stays fast; the tail exercises n up to 40
_SIZES = (6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 28, 40)
_PER_CELL = 24


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _gnp_p(k: int) -> float:
    return min(0.9, 0.3 + 0.12 * k)


def _disk_radius(k: int) -> Fraction:
    return Fraction(3, 5) if k <= 2 else Fraction(7, 10)


@pytest.fixture(scope="module")
def pipeline_runs():
    """Criterion-1 workload, shared with criteria 4 and 9.

    Returns (outputs, forest_records, elapsed_s) where outputs are
    (instance, variant, report) triples and forest_records capture every
    internal augmenting-forest computation.
    """
    records = []
    real_forest = solver_mod.minimal_augmenting_forest

    def recording_forest(h, attachment, k):
        j = real_forest(h, attachment, k)
        records.append((h, tuple(sorted(set(attachment))), k, j))
        return j

    outputs = []
    start = time.perf_counter()
    solver_mod.minimal_augmenting_forest = recording_forest
    try:
        seed = 0
        for k in (1, 2, 3, 4):
            for m in (k, k + 1, k + 2):
                produced = 0
                attempts = 0
                while produced < _PER_CELL:
                    attempts += 1
                    assert attempts < 3000, f"cannot fill cell k={k} m={m}"
                    seed += 1
                    n = max(_SIZES[seed % len(_SIZES)], k + 2)
                    if seed % 2:
                        instance = gen_gnp(n, _gnp_p(k), (1, 50), seed, k, m)
                    else:
                        instance = gen_unit_disk(
                            n, _disk_radius(k), (1, 50), seed, k, m
                        )
                    if precheck(instance) is not None:
                        continue
                    produced += 1
                    outputs.append((instance, "general", solve_general(instance, CFG)))
                    if instance.is_geometric:
                        outputs.append(
                            (instance, "unit-disk", solve_unit_disk(instance, CFG))
                        )
                    if k in (2, 3) and n <= 20:
                        outputs.append(
                            (instance, "guess-root", solve_guess_root(instance, CFG))
                        )
    finally:
        solver_mod.minimal_augmenting_forest = real_forest
    return outputs, records, time.perf_counter() - start


@pytest.fixture(scope="module")
def oracle_runs():
    """>= 110 solved small instances with exact optima (criteria 2 and 3)."""
    runs = []
    seed = 10_000
    attempts = 0
    while len(runs) < 110:
        attempts += 1
        assert attempts < 3000, "cannot assemble the oracle suite"
        seed += 1
        k = 1 + seed % 3
        m = k + seed % 2
        n = 6 + seed % 9  # 6..14
        if n <= k + 1:
            continue
        lo = 0 if seed % 7 == 0 else 1
        if seed % 2:
            instance = gen_gnp(n, _gnp_p(k), (lo, 30), seed, k, m)
        else:
            instance = gen_unit_disk(n, _disk_radius(k), (lo, 30), seed, k, m)
        if precheck(instance) is not None:
            continue
        report = solve_general(instance, CFG)
        best = opt_kmcds(instance)
        assert best.feasible  # the whole node set is always a fallback
        runs.append((instance, report, best))
    return runs


def test_criterion_1_every_output_verifies(pipeline_runs):
    outputs, _, elapsed = pipeline_runs
    for instance, variant, report in outputs:
        g = instance.graph
        members = frozenset(report.solution)
        assert brute_m_dominating(g, members, instance.m), (variant, report)
        assert is_k_connected(g.induced(members), instance.k), (variant, report)
    ok = len(outputs) >= 500 and elapsed < 300.0
    _line(1, ok, f"{len(outputs)} outputs, all verified, {elapsed:.1f}s")


def test_criterion_2_oracle_ratio_bound(pipeline_runs, oracle_runs):
    ratios = []
    for instance, report, best in oracle_runs:
        _, max_deg = degree_stats(instance.graph)
        additive = report.guarantee["backend_factor_value"] + 2 * (instance.k - 1)
        assert within_ln_plus_one(
            report.total_weight, best.weight, max_deg + instance.m, additive
        ), (report.total_weight, best.weight, instance.k, instance.m)
        if best.weight > 0:
            ratios.append(Fraction(report.total_weight, best.weight))
    median = statistics.median(ratios)
    _line(
        2,
        len(oracle_runs) >= 100,
        f"{len(oracle_runs)} instances within bound, median ratio {float(median):.4f}",
    )


def test_criterion_3_greedy_domination_bound(oracle_runs):
    checked = 0
    for instance, _, _ in oracle_runs:
        g = instance.graph
        w_greedy = g.total_weight(greedy_mds(instance))
        w_opt = g.total_weight(opt_mds_bruteforce(instance))
        _, max_deg = degree_stats(g)
        assert within_ln_plus_one(w_greedy, w_opt, max_deg + instance.m)
        checked += 1
    _line(3, checked >= 100, f"{checked} greedy runs within the exact bound")


def test_criterion_4_forest_invariants(pipeline_runs):
    _, records, _ = pipeline_runs
    for h, attachment, k, forest in records:
        assert _is_forest(attachment, forest)
        assert len(forest) <= k - 1
        assert is_k_connected(h.union_edges(forest), k)
        for e in forest:
            rest = [f for f in forest if f != e]
            assert not is_k_connected(h.union_edges(rest), k)
    _line(4, len(records) > 0, f"{len(records)} forests, all minimal and within k-1 edges")


def test_criterion_5_cut_rule_matches_flows():
    rng = random.Random(505)
    agreed = 0
    while agreed < 200:
        n = rng.randint(3, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        k = rng.randint(1, 4)
        root = n
        attachment = sorted(rng.sample(range(n), rng.randint(1, min(4, n))))
        g_r = Graph(
            range(n + 1), list(g.edges) + [(v, root) for v in attachment]
        )
        terminals = sorted(rng.sample(range(n), rng.randint(1, n)))
        selected = [v for v in range(n) if v not in set(terminals)]
        by_cut = check_cut_characterization(g_r, terminals, selected, attachment, k)
        by_flow = find_infeasible_terminal(root_problem(g_r, root, k), ()) is None
        assert by_cut == by_flow
        agreed += 1
    _line(5, agreed >= 200, f"{agreed} rooted instances, cut rule == flow test")


def test_criterion_6_dominating_terminals_imply_connectivity():
    rng = random.Random(606)
    confirmed = 0
    attempts = 0
    while confirmed < 200:
        attempts += 1
        assert attempts < 200_000
        n = rng.randint(3, 10)
        k = rng.randint(1, 3)
        g = random_graph(rng, n, rng.uniform(0.4, 0.95))
        size = rng.randint(max(1, n // 2), n)
        terminals = frozenset(rng.sample(range(n), size))
        if not brute_m_dominating(g, terminals, k):
            continue
        if not is_k_T_connected(g, terminals, k):
            continue
        assert is_k_connected(g, k), (sorted(g.edges), sorted(terminals), k)
        confirmed += 1
    _line(6, confirmed >= 200, f"{confirmed} triples, graph k-connected in every case")


def test_criterion_7_edge_cost_conversion_bounds():
    rng = random.Random(707)
    samples = 0
    while samples < 120:
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.3, 1.0))
        members = sorted(rng.sample(range(n), rng.randint(2, n)))
        sub = g.induced(frozenset(members))
        chosen = [e for e in sub.edges if rng.random() < 0.8]
        deg = dict.fromkeys(members, 0)
        for u, v in chosen:
            deg[u] += 1
            deg[v] += 1
        lo, hi = min(deg.values()), max(deg.values())
        cost = sum(g.weights[u] + g.weights[v] for u, v in chosen)
        w_s = g.total_weight(members)
        assert lo * w_s <= cost <= hi * w_s
        samples += 1
    _line(7, samples >= 100, f"{samples} sampled subgraphs, bounds exact")


def test_criterion_8_guess_root_is_internally_connected():
    done = {2: 0, 3: 0}
    wins = 0
    compared = 0
    seed = 80_000
    attempts = 0
    while done[2] < 50 or done[3] < 50:
        attempts += 1
        assert attempts < 5000, "cannot assemble the guess-root suite"
        seed += 1
        k = 3 if done[3] < 50 else 2
        n = 10 + seed % 7  # 10..16
        instance = gen_unit_disk(n, Fraction(13, 20), (1, 40), seed, k, k)
        if precheck(instance) is not None:
            continue
        report = solve_guess_root(instance, CFG)
        assert report.forest == () and report.pair_connectors == ()
        assert is_k_connected(
            instance.graph.induced(frozenset(report.solution)), k
        )
        done[k] += 1
        if instance.n <= 14:
            compared += 1
            if report.total_weight <= solve_general(instance, CFG).total_weight:
                wins += 1
    _line(
        8,
        done[2] >= 50 and done[3] >= 50,
        f"{done[2]}+{done[3]} runs, no virtual edges, all k-connected; "
        f"guess-root <= general in {wins}/{compared} oracle-sized cases",
    )


def test_criterion_9_reports_are_byte_identical(pipeline_runs):
    outputs, _, _ = pipeline_runs
    solvers = {
        "general": solve_general,
        "unit-disk": solve_unit_disk,
        "guess-root": solve_guess_root,
    }
    checked = 0
    for instance, variant, report in outputs[:12]:
        again = solvers[variant](instance, CFG)
        assert dump_report(report) == dump_report(again)
        checked += 1
    _line(9, checked >= 10, f"{checked} re-solves, reports byte-identical")
