"""End-to-end solver pipelines: general, unit-disk, and root-guessing."""

import random
import re
from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import kmcds
import kmcds.connectivity as connectivity_mod
import kmcds.solver as solver_mod
from kmcds import (
    Graph,
    Instance,
    RootedProblem,
    SolverConfig,
    SplitFlowNetwork,
    check_certificate,
    dump_report,
    gen_gnp,
    gen_unit_disk,
    opt_kmcds,
    precheck,
    solve_general,
    solve_guess_root,
    solve_rooted_nodeweight,
    solve_unit_disk,
    verify_solution,
)
from kmcds.domset import greedy_mds
from kmcds.errors import InfeasibleError, InvariantViolationError
from kmcds.serialize import dumps_canonical, report_to_dict

from brutes import (
    brute_m_dominating,
    edgecost_flow_union,
    induced_best_guess,
    restart_final_prune,
    without_edges,
)
from toolbox import breaking_prune, complete_graph, cycle_graph, inst, petersen, random_graph


def _guess_root_instances(count, n_range, k_values):
    """Seeded feasible guess-root inputs."""
    out = []
    seed = 0
    while len(out) < count:
        rng = random.Random(seed)
        k = rng.choice(k_values)
        g = random_graph(rng, rng.randint(*n_range), rng.uniform(0.35, 0.75))
        instance = inst(g, k, k + rng.randint(0, 1))
        if precheck(instance) is None:
            out.append(instance)
        seed += 1
    return out


def _verified(instance, report):
    res = verify_solution(instance, report.solution)
    assert res.feasible
    assert check_certificate(instance, res.certificate) == []
    return res


def test_minimal_cliques_take_every_node():
    for k in (1, 2, 3):
        instance = inst(complete_graph(k + 1), k, k)
        report = solve_general(instance)
        assert report.solution == tuple(range(k + 1))
        assert report.total_weight == k + 1
        assert report.flags["grown_for_min_size"]  # k nodes can never be enough
        _verified(instance, report)


def test_c5_matches_the_optimum():
    instance = inst(cycle_graph(5), 1, 1)
    report = solve_general(instance)
    assert report.total_weight == opt_kmcds(instance).weight == 3
    assert report.dominating == (0, 2)
    _verified(instance, report)


def test_c5_biconnected_needs_the_whole_cycle():
    instance = inst(cycle_graph(5), 2, 2)
    for report in (solve_general(instance), solve_guess_root(instance)):
        assert report.solution == (0, 1, 2, 3, 4)
        assert report.total_weight == 5
        _verified(instance, report)


def test_zero_weights_yield_zero_total():
    g = Graph(range(5), complete_graph(5).edges, dict.fromkeys(range(5), 0))
    report = solve_general(inst(g, 2, 2))
    assert report.total_weight == 0
    assert report.weights == {
        "dominating": 0,
        "connectors": 0,
        "pair_connectors": 0,
        "attachment_extra": 0,
        "total": 0,
    }


def test_dominating_set_is_kept_whole():
    instance = inst(petersen(), 2, 2)
    report = solve_general(instance)
    assert set(report.dominating) <= set(report.solution)
    assert not set(report.pruned) & set(report.dominating)
    _verified(instance, report)


def test_weight_breakdown_sums():
    instance = inst(petersen(), 3, 3)
    report = solve_general(instance)
    w = report.weights
    assert (
        w["dominating"] + w["connectors"] + w["pair_connectors"] + w["attachment_extra"]
        == w["total"]
    )


def test_enumerated_attachment_never_loses():
    rng = random.Random(11)
    g = random_graph(rng, 9, 0.5)
    instance = inst(g, 2, 2)
    if precheck(instance) is not None:
        pytest.skip("seed produced an infeasible graph")
    base = solve_general(instance)
    enum = solve_general(instance, SolverConfig(attachment_rule="enumerate"))
    assert enum.total_weight <= base.total_weight
    assert enum.flags["attachment_enum_truncated"] is False


def test_enumeration_cap_falls_back_to_min_weight():
    instance = inst(petersen(), 2, 2)
    capped = solve_general(
        instance, SolverConfig(attachment_rule="enumerate", attachment_enum_cap=1)
    )
    base = solve_general(instance)
    assert capped.flags["attachment_enum_truncated"] is True
    assert capped.solution == base.solution


def test_exact_backend_never_loses():
    instance = inst(cycle_graph(6), 2, 2)
    fu = solve_general(instance)
    ex = solve_general(instance, SolverConfig(backend="exact"))
    assert ex.total_weight <= fu.total_weight
    assert ex.guarantee["backend"] == "exact"
    _verified(instance, ex)


def test_backend_factor_counts_the_rooted_terminals():
    # the rooted problem's terminals are T, less the root a guess names
    instance = inst(cycle_graph(6), 2, 2)
    for config in (SolverConfig(), SolverConfig(backend="exact")):
        for solve in (solve_general, solve_guess_root):
            report = solve(instance, config)
            assert report.guarantee["backend"] == config.backend
            rooted = set(report.dominating) - {report.guess_root}
            if config.backend == "exact":
                expected = ("1", 1)
            else:
                expected = ("2|T|", 2 * len(rooted))
            assert (
                report.guarantee["backend_factor_expr"], report.guarantee["backend_factor_value"]
            ) == expected
    guessed = solve_guess_root(instance)
    assert guessed.guess_root in guessed.dominating  # so the two counts differ


def test_guess_root_on_k4():
    instance = inst(complete_graph(4), 3, 3)
    report = solve_guess_root(instance)
    assert report.solution == (0, 1, 2, 3)
    assert report.total_weight == 4
    assert report.guess_root == 0
    assert report.attachment == (1, 2, 3)
    assert report.forest == () and report.pair_connectors == ()
    assert report.flags["fallback_to_general"] is False
    _verified(instance, report)


def test_guess_root_on_petersen():
    instance = inst(petersen(), 3, 3)
    report = solve_guess_root(instance)
    assert report.variant == "guess-root"
    assert report.forest == () and report.pair_connectors == ()
    assert report.guess_root is not None
    _verified(instance, report)


def test_guess_root_rejects_other_k():
    with pytest.raises(ValueError):
        solve_guess_root(inst(complete_graph(5), 1, 1))
    with pytest.raises(ValueError):
        solve_guess_root(inst(complete_graph(6), 4, 4))


def _starve_candidate_roots(monkeypatch, g):
    """Make the rooted stage refuse every guess-root candidate."""
    real = solver_mod.solve_rooted_nodeweight

    def starve_original_roots(problem, backend="flow-union", net=None):
        if problem.root in g.nodes:  # candidate roots; the virtual root is n
            raise InfeasibleError("forced for the test")
        return real(problem, backend, net)

    monkeypatch.setattr(solver_mod, "solve_rooted_nodeweight", starve_original_roots)


def _count_calls(monkeypatch, name):
    """Calls of the solver module's ``name``, recorded by argument."""
    real = getattr(solver_mod, name)
    calls = []

    def counting(instance):
        calls.append(instance)
        return real(instance)

    monkeypatch.setattr(solver_mod, name, counting)
    return calls


def test_guess_root_falls_back_when_no_candidate_survives(monkeypatch):
    g = cycle_graph(5)
    instance = inst(g, 2, 2)
    _starve_candidate_roots(monkeypatch, g)
    prechecks = _count_calls(monkeypatch, "precheck")
    greedy_calls = _count_calls(monkeypatch, "greedy_mds")
    report = solve_guess_root(instance)
    assert report.variant == "guess-root"
    assert report.flags["fallback_to_general"] is True
    # the fallback pipeline repeats neither the precheck nor T
    assert len(prechecks) == 1 and len(greedy_calls) == 1
    assert list(report.stage_seconds) == [
        "precheck", "dominating", "candidates", "augment", "prune", "verify", "total",
    ]
    seconds = dict(report.stage_seconds)
    total = seconds.pop("total")
    assert total >= seconds["precheck"] + seconds["candidates"]
    assert total >= sum(seconds.values())  # disjoint stages, the candidate loop included
    _verified(instance, report)


@pytest.mark.parametrize("variant", ["general", "unit-disk", "guess-root"])
def test_every_route_computes_the_dominating_set_once(monkeypatch, variant):
    instance = gen_unit_disk(12, Fraction(3, 5), (1, 9), 4, 2, 3)
    assert precheck(instance) is None
    greedy_calls = _count_calls(monkeypatch, "greedy_mds")
    report = solver_mod.SOLVERS[variant](instance)
    assert greedy_calls == [instance]
    assert report.flags["fallback_to_general"] is False


@pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(final_prune=False)])
def test_guess_root_fallback_is_the_general_report(monkeypatch, config):
    for instance in _guess_root_instances(6, (6, 10), (2, 3)):
        general = report_to_dict(solve_general(instance, config))
        with monkeypatch.context() as patched:
            _starve_candidate_roots(patched, instance.graph)
            fallback = report_to_dict(solve_guess_root(instance, config))
        assert fallback["variant"] == "guess-root"
        assert fallback["flags"]["fallback_to_general"] is True
        fallback["variant"] = general["variant"]
        fallback["flags"]["fallback_to_general"] = False
        assert dumps_canonical(fallback) == dumps_canonical(general)


def test_unit_disk_needs_geometry():
    with pytest.raises(ValueError, match="coordinates"):
        solve_unit_disk(inst(complete_graph(4), 1, 1))


def test_unit_disk_cluster():
    tenth = Fraction(1, 10)
    coords = [
        (0, 0),
        (tenth, 0),
        (0, tenth),
        (tenth, tenth),
        (2 * tenth, 0),
        (0, 2 * tenth),
    ]
    instance = Instance.unit_disk(coords, 1, [1] * 6, 2, 2)
    assert len(instance.graph.edges) == 15  # all pairs inside the radius
    report = solve_unit_disk(instance)
    assert report.variant == "unit-disk"
    assert report.total_weight == 3
    _verified(instance, report)


def test_unit_disk_grid():
    coords = [(i, j) for i in range(3) for j in range(3)]
    instance = Instance.unit_disk(coords, 1, [1] * 9, 1, 1)
    report = solve_unit_disk(instance)
    assert report.solution == (1, 4, 7)
    assert report.total_weight == 3 == opt_kmcds(instance).weight
    _verified(instance, report)


def _label_free(report):
    doc = report_to_dict(report)
    doc["guarantee"] = {k: v for k, v in doc["guarantee"].items() if k != "cited_targets"}
    del doc["variant"]
    return doc


def test_unit_disk_is_the_general_pipeline_under_its_label(monkeypatch):
    solved = refused = 0
    for seed in range(18):
        k = 1 + seed % 3
        instance = gen_unit_disk(
            20 + seed % 4 * 6, Fraction(12 + k * 2, 40), (seed % 2, 9), seed, k, k + seed % 2
        )
        for config in (SolverConfig(), SolverConfig(final_prune=False)):
            try:
                disk = solve_unit_disk(instance, config)
            except InfeasibleError as exc:
                with pytest.raises(InfeasibleError, match=f"^{re.escape(str(exc))}$"):
                    solve_general(instance, config)
                refused += 1
                continue
            assert _label_free(disk) == _label_free(solve_general(instance, config))
            # the edge-cost stage unit-disk solves used to run gives the
            # same report
            with monkeypatch.context() as patched:
                patched.setattr(
                    solver_mod, "solve_rooted_nodeweight",
                    lambda problem, backend, net=None: edgecost_flow_union(problem),
                )
                assert dump_report(solve_unit_disk(instance, config)) == dump_report(disk)
            assert disk.guarantee["backend"] == "flow-union"
            solved += 1
    assert solved >= 20 and refused


def test_unit_disk_runs_the_configured_backend():
    instance = gen_unit_disk(12, Fraction(1, 2), (1, 9), 1, 2, 2)
    config = SolverConfig(backend="exact")
    disk = solve_unit_disk(instance, config)
    assert disk.guarantee["backend"] == "exact"
    assert disk.solution == solve_general(instance, config).solution
    _verified(instance, disk)


def test_edgeless_graph_is_infeasible():
    instance = Instance.general(3, [], [1, 1, 1], 1, 1)
    with pytest.raises(InfeasibleError, match="not 1-connected"):
        solve_general(instance)


def test_too_small_graph_is_infeasible():
    instance = inst(complete_graph(3), 3, 3)
    with pytest.raises(InfeasibleError, match="only 3 nodes"):
        solve_general(instance)


def test_prune_only_shrinks():
    rng = random.Random(7)
    g = random_graph(rng, 10, 0.45)
    instance = inst(g, 2, 2)
    if precheck(instance) is not None:
        pytest.skip("seed produced an infeasible graph")
    kept = solve_general(instance, SolverConfig(final_prune=False))
    pruned = solve_general(instance)
    assert kept.pruned == ()
    assert set(pruned.solution) <= set(kept.solution)
    assert pruned.total_weight <= kept.total_weight
    _verified(instance, kept)


def test_reports_are_reproducible():
    instance = inst(petersen(), 2, 2)
    a = dump_report(solve_general(instance))
    b = dump_report(solve_general(instance))
    assert a == b
    with_times = dump_report(solve_general(instance), include_timings=True)
    assert "timings_s" in with_times and "timings_s" not in a


def test_verify_rejects_bad_sets():
    instance = inst(cycle_graph(5), 1, 1)
    res = verify_solution(instance, [0, 1])
    assert not res.feasible
    assert not res.domination_ok and res.domination_violations == {3: 0}
    assert res.connectivity_ok
    assert res.certificate is None

    res = verify_solution(instance, [0, 2])
    assert not res.feasible
    assert res.domination_ok and not res.connectivity_ok

    with pytest.raises(ValueError):
        verify_solution(instance, [99])


def test_verify_result_stores_each_fact_once():
    assert kmcds.VerifyResult is solver_mod.VerifyResult is connectivity_mod.VerifyResult
    assert [f.name for f in fields(kmcds.VerifyResult)] == [
        "domination_violations", "connectivity_violation", "certificate",
    ]
    assert [f.name for f in fields(kmcds.ConnectivityViolation)] == [
        "pair", "separator", "direct_edge", "too_small",
    ]
    instance = inst(cycle_graph(5), 1, 1)
    for members in ([0, 1], [0, 2], [0, 1, 2], [0, 1, 2, 3]):
        res = connectivity_mod.certify(instance.graph, members, 1, 1)
        assert isinstance(res, kmcds.VerifyResult)
        assert res == verify_solution(instance, members)
        assert res.feasible == (res.domination_ok and res.connectivity_ok)
        assert res.feasible == (res.certificate is not None)


@pytest.mark.parametrize("with_witnesses", [True, False])
def test_feasible_verify_leaves_connectivity_to_the_certificate(monkeypatch, with_witnesses):
    # one kernel pass per verify: it is the certificate's pass on a feasible
    # set and the witness's on a refused one
    calls = []
    kernel = connectivity_mod.find_k_connectivity_violation

    def counting(g, k, paths=None, *, members=None, net=None):
        calls.append(len(set(members)))
        return kernel(g, k, paths, members=members, net=net)

    monkeypatch.setattr(connectivity_mod, "find_k_connectivity_violation", counting)
    instance = inst(petersen(), 3, 3)
    res = verify_solution(instance, range(10), with_witnesses)
    assert res.feasible and res.connectivity_violation is None and calls == [10]
    assert (res.certificate.fans != {}) == with_witnesses
    res = verify_solution(instance, range(9), with_witnesses)
    assert not res.feasible and res.domination_ok
    assert res.connectivity_violation is not None and calls == [10, 9]


def test_public_names_resolve():
    assert all(hasattr(kmcds, name) for name in kmcds.__all__)
    for gone in (
        "solve_rooted_edgecost",
        "is_k_in_connected_to_root",
        "find_root_connectivity_violation",
        "selection_is_feasible",
        "flow_union_backend",
        "node_cost_map",
        "induced_subgraph",
        # helpers only tests call, now in tests/brutes.py
        "is_k_T_connected",
        "check_cut_characterization",
        "check_subpartition_characterization",
        "local_connectivity",
        "opt_mds_bruteforce",
        "greedy_mds_order",
        "coverage_potential",
        "neighbors",
        # m-domination is read from domination_counts or a VerifyResult
        "is_m_dominating",
        "DominationCheck",
        "write_instance",
    ):
        assert gone not in kmcds.__all__
        assert not hasattr(kmcds, gone)
    assert not hasattr(kmcds.Graph, "without_edges")


def test_config_block_keeps_its_five_keys():
    assert SolverConfig().to_dict() == {
        "backend": "flow-union",
        "attachment_rule": "min-weight",
        "final_prune": True,
        "collect_witnesses": True,
        "attachment_enum_cap": 12,
    }


def test_witnesses_can_be_skipped():
    instance = inst(cycle_graph(5), 2, 2)
    report = solve_general(instance, SolverConfig(collect_witnesses=False))
    assert report.certificate is not None
    assert report.certificate.pairs == {} and report.certificate.fans == {}


@pytest.mark.parametrize("solve", [solve_general, solve_guess_root])
def test_a_bad_final_set_is_an_invariant_violation(monkeypatch, solve):
    instance = inst(cycle_graph(6), 2, 2)
    assert check_certificate(instance, solve(instance).certificate) == []
    monkeypatch.setattr(solver_mod, "_final_prune", breaking_prune)
    with pytest.raises(InvariantViolationError, match="not a \\(k, m\\)-cds"):
        solve(instance)


@given(st.integers(0, 2**32 - 1))
def test_random_instances_solve_and_verify(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 2)
    g = random_graph(rng, rng.randint(k + 2, 9), 0.55)
    instance = inst(g, k, rng.randint(k, k + 1))
    if precheck(instance) is not None:
        with pytest.raises(InfeasibleError):
            solve_general(instance)
        return
    report = solve_general(instance)
    w = report.weights
    assert set(report.dominating) <= set(report.solution)
    assert (
        w["dominating"] + w["connectors"] + w["pair_connectors"] + w["attachment_extra"]
        == w["total"]
    )
    _verified(instance, report)


@given(st.integers(0, 2**32 - 1))
def test_guess_root_never_returns_garbage(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(5, 8), 0.6)
    instance = inst(g, 2, 2)
    if precheck(instance) is not None:
        return
    report = solve_guess_root(instance)
    _verified(instance, report)


def test_neighbour_bound_is_sound_on_every_candidate():
    # bound <= the weight of every feasible candidate; None only when infeasible
    finite = infinite = positive = 0
    for instance in _guess_root_instances(14, (5, 12), (2, 3)):
        g, k = instance.graph, instance.k
        terminals = greedy_mds(instance)
        for r in g.nodes:
            for picked in combinations(g.adj[r], k):
                forced = frozenset(picked) | {r} | terminals
                bound = solver_mod._neighbour_bound(g, r, picked, forced, terminals, k)
                problem = RootedProblem(
                    graph_r=without_edges(g, ((r, x) for x in g.adj[r] if x not in picked)),
                    root=r,
                    terminals=tuple(sorted(terminals - {r})),
                    pool=tuple(v for v in g.nodes if v not in forced),
                    k=k,
                )
                for backend in ("flow-union", "exact"):
                    if bound is None:
                        with pytest.raises(InfeasibleError):
                            solve_rooted_nodeweight(problem, backend)
                        continue
                    try:
                        connectors = solve_rooted_nodeweight(problem, backend)
                    except InfeasibleError:
                        continue
                    weight = g.total_weight(forced | connectors)
                    assert g.total_weight(forced) + bound <= weight
                infinite += bound is None
                finite += bound is not None
                positive += bool(bound)
    assert infinite and positive and finite > positive


@pytest.mark.parametrize("backend", ["flow-union", "exact"])
def test_guess_root_matches_the_unbounded_induced_loop(monkeypatch, backend):
    config = SolverConfig(backend=backend)
    for instance in _guess_root_instances(16, (6, 12), (2, 3)):
        terminals = greedy_mds(instance)
        expected = induced_best_guess(instance, terminals, backend)
        assert solver_mod._best_guess(instance, terminals, config) == expected
        report = dump_report(solve_guess_root(instance, config))
        with monkeypatch.context() as patched:
            patched.setattr(
                solver_mod, "_best_guess",
                lambda inst_, terms, cfg: induced_best_guess(inst_, terms, cfg.backend),
            )
            assert dump_report(solve_guess_root(instance, config)) == report


@st.composite
def _feasible_instances(draw):
    """Feasible instances, half of them disk graphs, with zero weights allowed."""
    k = draw(st.integers(1, 3))
    m = k + draw(st.integers(0, 2))
    n = draw(st.integers(k + 1, 14))
    weights = (0, draw(st.sampled_from((0, 1, 3, 30))))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        radius = Fraction(draw(st.integers(50, 100)), 100)
        instance = gen_unit_disk(n, radius, weights, seed, k, m)
    else:
        instance = gen_gnp(n, draw(st.floats(0.55, 1.0)), weights, seed, k, m)
    assume(precheck(instance) is None)
    return instance


@given(_feasible_instances())
def test_the_dominating_set_never_needs_padding(instance):
    # m >= k: a node outside T has at least k neighbours in T, and n > k
    assert len(greedy_mds(instance)) >= instance.k
    variants = ["general"]
    variants += ["unit-disk"] if instance.is_geometric else []
    variants += ["guess-root"] if instance.k in (2, 3) else []
    for variant in variants:
        assert solver_mod.SOLVERS[variant](instance).flags["dominating_padding"] == []


def test_every_prune_trial_m_dominates(monkeypatch):
    # every trial keeps T, so the prune tests k-connectivity alone
    trials = []
    real = solver_mod.find_k_connectivity_violation

    def recording(g, k, paths=None, *, members=None, net=None):
        if members is not None:
            trials.append(frozenset(members))
        return real(g, k, paths, members=members, net=net)

    monkeypatch.setattr(solver_mod, "find_k_connectivity_violation", recording)
    disks = [gen_unit_disk(12, Fraction(3, 5), (0, 9), seed, 2, 3) for seed in range(4)]
    runs = [(solve_unit_disk, d) for d in disks if precheck(d) is None]
    for instance in _guess_root_instances(8, (6, 11), (2, 3)):
        runs += [(solve_general, instance), (solve_guess_root, instance)]
    seen = 0
    for solve, instance in runs:
        trials.clear()
        solve(instance)
        seen += len(trials)
        for trial in trials:
            assert brute_m_dominating(instance.graph, trial, instance.m)
    assert len(runs) > 16 and seen > len(runs)


def _builds_inside(monkeypatch, name):
    """A list that gains "graph" or "network" for each one built while ``solver.<name>`` runs."""
    built = []
    inside = []  # non-empty while the function runs
    real_fn, real_graph, real_net = (
        getattr(solver_mod, name), Graph.__init__, SplitFlowNetwork.__init__
    )

    def fn(*args):
        inside.append(True)
        try:
            return real_fn(*args)
        finally:
            inside.pop()

    def graph_init(self, *args, **kwargs):
        if inside:
            built.append("graph")
        real_graph(self, *args, **kwargs)

    def net_init(self, graph):
        if inside:
            built.append("network")
        real_net(self, graph)

    monkeypatch.setattr(solver_mod, name, fn)
    monkeypatch.setattr(Graph, "__init__", graph_init)
    monkeypatch.setattr(SplitFlowNetwork, "__init__", net_init)
    return built


@pytest.mark.parametrize("final_prune", [True, False])
@pytest.mark.parametrize("solve", [solve_general, solve_guess_root])
def test_report_builds_one_graph_and_one_network(monkeypatch, solve, final_prune):
    # the prune's trials and the certificate share one network over the
    # solution, built once whether or not the prune runs
    built = _builds_inside(monkeypatch, "_build_report")
    pruned = 0
    for instance in _guess_root_instances(8, (8, 14), (2, 3)):
        built.clear()
        report = solve(instance, SolverConfig(final_prune=final_prune))
        assert sorted(built) == ["graph", "network"]
        assert check_certificate(instance, report.certificate) == []
        pruned += len(report.pruned)
    if solve is solve_general:  # one solve drops a node before the certificate runs
        assert (pruned > 0) == final_prune


@pytest.mark.parametrize("backend", ["flow-union", "exact"])
def test_an_attempt_builds_one_graph_and_one_network(monkeypatch, backend):
    # g_r and one network over it: the rooted stage, the forest peel and
    # every pair bundle run on that network
    built = _builds_inside(monkeypatch, "_run_attempt")
    forests = 0
    for instance in _guess_root_instances(12, (8, 14), (2, 3)):
        built.clear()
        report = solve_general(instance, SolverConfig(backend=backend))
        assert sorted(built) == ["graph", "network"]
        forests += bool(report.forest)
    assert forests > 0


def test_final_prune_in_one_pass_matches_the_restart_loop(monkeypatch):
    # every node outside T has m >= k neighbours in T, so a node kept
    # against a set is kept against every smaller one: one trial per node
    trials = []
    real = solver_mod.find_k_connectivity_violation

    def counted(g, k, paths=None, *, members=None, net=None):
        trials.append(members)
        return real(g, k, paths, members=members, net=net)

    monkeypatch.setattr(solver_mod, "find_k_connectivity_violation", counted)
    several = []

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 1))
    def check(seed, k, extra_m):
        rng = random.Random(seed)
        m = k + extra_m
        n = rng.randint(m + 3, 13)
        terminals = frozenset(rng.sample(range(n), rng.randint(m, n - 2)))
        p = rng.choice((0.3, 0.6, 0.9))
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        for v in set(range(n)) - terminals:
            near = [t for t in terminals if (min(v, t), max(v, t)) in edges]
            for t in rng.sample(sorted(terminals - set(near)), max(0, m - len(near))):
                edges.add((min(v, t), max(v, t)))
        g = Graph(range(n), sorted(edges), {v: rng.randint(0, 3) for v in range(n)})
        outside = sorted(set(range(n)) - terminals)
        members = terminals | set(rng.sample(outside, rng.randint(2, len(outside))))
        if real(g.induced(members), k) is not None:
            return
        instance = inst(g, k, m)
        expected = restart_final_prune(instance, set(members), terminals)
        trials.clear()
        kept = set(members)
        net = SplitFlowNetwork(g.induced(members))
        assert solver_mod._final_prune(instance, kept, terminals, net) == expected
        assert kept == members - set(expected)
        assert len(trials) == len(members - terminals)
        if len(expected) >= 2:
            several.append(seed)

    check()
    assert len(several) >= 100
