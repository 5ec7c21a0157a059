"""CLI round-trips and exit codes, driven through main() in-process."""

import csv
import io
import json
import re

import pytest

import kmcds.cli as cli_mod
import kmcds.solver as solver_mod
from kmcds import Instance, dump_instance
from kmcds.cli import build_parser, main
from kmcds.rooted import BACKENDS

from brutes import brute_pair_connectivity, without_edges
from toolbox import breaking_prune, cycle_graph, inst, run_python


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_solve_verify_round_trip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    report = tmp_path / "report.json"
    code, _, _ = _run(
        capsys, "gen", "--kind", "gnp", "--n", "9", "--p", "0.7",
        "--seed", "3", "--k", "2", "--m", "2", "-o", str(inst),
    )
    assert code == 0
    code, _, _ = _run(capsys, "solve", str(inst), "-o", str(report))
    assert code == 0
    code, out, _ = _run(capsys, "verify", str(inst), "--from-report", str(report))
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_verify_flags_missing_domination(tmp_path, capsys):
    inst = tmp_path / "c5.json"
    _run(
        capsys, "gen", "--kind", "gnp", "--n", "5", "--p", "1.0",
        "--k", "1", "--m", "1", "-o", str(inst),
    )
    # an adjacent pair suffices on K5; a single node is never 1-connected
    code, out, _ = _run(capsys, "verify", str(inst), "--members", "0,1")
    assert code == 0
    code, out, _ = _run(capsys, "verify", str(inst), "--members", "")
    assert code == 2
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert [v for v, _ in doc["domination_violations"]] == [0, 1, 2, 3, 4]


def test_verify_checks_the_certificate_in_a_report(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    report = tmp_path / "report.json"
    _run(
        capsys, "gen", "--kind", "gnp", "--n", "12", "--p", "0.6",
        "--seed", "5", "--k", "2", "--m", "2", "-o", str(inst_path),
    )
    assert _run(capsys, "solve", str(inst_path), "-o", str(report))[0] == 0
    code, out, _ = _run(capsys, "verify", str(inst_path), "--certificate", str(report))
    assert code == 0
    doc = json.loads(out)
    assert doc["sound"] is True and doc["problems"] == []

    # a tampered file: one fan path dropped
    tampered = json.loads(report.read_text())
    fan = tampered["certificate"]["fans"][0]
    fan["paths"].pop()
    report.write_text(json.dumps(tampered))
    code, out, _ = _run(capsys, "verify", str(inst_path), "--certificate", str(report))
    assert code == 2
    doc = json.loads(out)
    assert doc["sound"] is False
    assert f"fan of {fan['member']}: 1 paths, need 2" in doc["problems"]

    # a report without witnesses proves nothing by itself
    assert _run(capsys, "solve", str(inst_path), "--no-witnesses", "-o", str(report))[0] == 0
    code, out, _ = _run(capsys, "verify", str(inst_path), "--certificate", str(report))
    assert code == 2
    assert json.loads(out)["problems"][0].startswith("no pair bundle")

    # malformed certificates and documents are errors
    for broken in (
        {**tampered, "certificate": {**tampered["certificate"], "fans": {}}},
        {**tampered, "schema_version": 1},
        {**tampered, "certificate": None},
    ):
        report.write_text(json.dumps(broken))
        code, _, err = _run(capsys, "verify", str(inst_path), "--certificate", str(report))
        assert code == 1 and err.startswith("error: ")
    report.write_text("{")
    code, _, err = _run(capsys, "verify", str(inst_path), "--certificate", str(report))
    assert code == 1 and "line 1" in err


def test_verify_rejects_inexact_and_repeated_ids(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(inst(cycle_graph(5), 1, 1)))
    report = tmp_path / "ids.json"
    for ids in ([0, 1.9, 2, 3, 4], [0, True, 2, 3, 4], {"sets": {"solution": [0, 1.0, 2]}}):
        report.write_text(json.dumps(ids))
        code, out, err = _run(capsys, "verify", str(inst_path), "--from-report", str(report))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "not an integer" in err
    for source in (["--members", "0,0,1,2,3,4"], ["--from-report", str(report)]):
        report.write_text(json.dumps({"members": [0, 1, 2, 3, 4, 0]}))
        code, out, err = _run(capsys, "verify", str(inst_path), *source)
        assert code == 1 and out == ""
        assert err == "error: member id 0 is listed more than once\n"


def test_verify_needs_one_node_set_source(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(inst(cycle_graph(5), 1, 1)))
    for extra, message in (
        ([], "one of the arguments"),
        (["--members", "0,1", "--certificate", "x.json"], "not allowed with"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(inst_path), *extra])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err


def test_solve_exits_one_on_a_bad_final_set(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "c6.json"
    inst_path.write_text(dump_instance(inst(cycle_graph(6), 2, 2)))
    monkeypatch.setattr(solver_mod, "_final_prune", breaking_prune)
    for variant in ("general", "guess-root"):
        code, out, err = _run(capsys, "solve", str(inst_path), "--variant", variant)
        assert code == 1 and out == ""
        assert err.startswith("error: final set is not a (k, m)-cds")


def test_solve_reports_infeasible(tmp_path, capsys):
    inst = tmp_path / "sparse.json"
    _run(
        capsys, "gen", "--kind", "gnp", "--n", "8", "--p", "0.0",
        "--k", "1", "--m", "1", "-o", str(inst),
    )
    code, _, err = _run(capsys, "solve", str(inst))
    assert code == 2
    assert "infeasible" in err


_WITNESS = re.compile(
    r"removing nodes \[([\d, ]*)\]( plus their shared edge)? separates (\d+) from (\d+)"
)


@pytest.mark.parametrize("n, edges, k", [
    # k = 1, disconnected: found by a plain search
    (5, [(0, 1), (1, 2), (3, 4)], 1),
    # node 4 has degree 1 < k
    (5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (3, 4)], 2),
    # bowtie: every degree is 2, node 2 is a cut node
    (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], 2),
    # two K4s joined by the edges 0-1 and 2-5: the pair 0, 1 keeps 2 < 3 paths
    (8, [(0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4),
         (1, 5), (1, 6), (1, 7), (5, 6), (5, 7), (6, 7), (0, 1), (2, 5)], 3),
])
def test_solve_infeasible_message_carries_a_true_witness(tmp_path, capsys, n, edges, k):
    instance = Instance.general(n, edges, [1] * n, k, k)
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(instance))
    code, out, err = _run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    found = _WITNESS.search(err)
    assert found, err
    separator = [int(x) for x in found.group(1).split(",") if x.strip()]
    pair = (int(found.group(3)), int(found.group(4)))
    g = instance.graph
    rest = g.induced(set(g.nodes) - set(separator))
    if found.group(2):
        rest = without_edges(rest, [pair])
    assert len(separator) + bool(found.group(2)) < k
    assert brute_pair_connectivity(rest, *pair) == 0


def test_jobs_flag_must_be_a_positive_integer(capsys):
    for jobs in ("-3", "0", "two"):
        code, out, err = _run(capsys, "bench", "--kinds", "gnp", "--sizes", "6", "--jobs", jobs)
        assert code == 1 and out == ""
        assert err == f"error: --jobs must be a positive integer, got {jobs!r}\n"


def test_per_cell_flag_must_be_a_positive_integer(capsys):
    for count in ("0", "-2"):
        code, out, err = _run(
            capsys, "bench", "--kinds", "gnp", "--sizes", "6", "--k-values", "1",
            "--per-cell", count,
        )
        assert code == 1 and out == ""
        assert err == f"error: --per-cell must be a positive integer, got {count!r}\n"


def test_bench_rejects_an_empty_axis(capsys, monkeypatch):
    swept = []
    monkeypatch.setattr(cli_mod, "run_bench", lambda tasks, jobs=1: swept.append(tasks))
    for flag, value in (
        ("--kinds", ","), ("--sizes", ","), ("--k-values", ""),
        ("--m-offsets", ","), ("--variants", ","),
    ):
        code, out, err = _run(capsys, "bench", flag, value)
        assert code == 1 and out == ""
        assert err == f"error: {flag} needs at least one value\n"
    assert swept == []


def test_bench_rejects_a_grid_its_skip_rules_empty(capsys, monkeypatch):
    swept = []
    monkeypatch.setattr(cli_mod, "run_bench", lambda tasks, jobs=1: swept.append(tasks))
    for argv, rule in (
        (("--kinds", "gnp", "--variants", "unit-disk", "--sizes", "10", "--k-values", "2"),
         "the unit-disk variant runs only on unit-disk instances"),
        (("--variants", "guess-root", "--k-values", "1"),
         "guess-root runs only for k in {2, 3}"),
    ):
        code, out, err = _run(capsys, "bench", *argv)
        assert code == 1 and out == ""
        assert err == f"error: the grid plans no solve: {rule}\n"
    assert swept == []


def test_bench_refuses_an_oracle_cap_it_cannot_honour(capsys, monkeypatch):
    swept = []
    monkeypatch.setattr(cli_mod, "run_bench", lambda tasks, jobs=1: swept.append(tasks))
    for cap in ("-1", "17"):
        code, out, err = _run(capsys, "bench", "--sizes", "17", "--oracle-cap", cap)
        assert code == 1 and out == ""
        assert err.startswith("error: oracle cap") and "16-node cap" in err
    assert swept == []


def test_bench_runs_the_oracle_up_to_its_own_cap(capsys):
    code, out, _ = _run(
        capsys, "bench", "--sizes", "8", "--per-cell", "1", "--p", "0.7",
        "--oracle-cap", "16",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(r["oracle_weight"] for r in rows)


def test_bench_ratio_of_a_zero_optimum_is_one(capsys):
    # every weight 0: the oracle's optimum and the solver's total are both 0
    code, out, _ = _run(
        capsys, "bench", "--kinds", "gnp", "--sizes", "7", "--k-values", "1,2",
        "--per-cell", "2", "--p", "0.8", "--weights", "0:0", "--oracle-cap", "16",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(r["oracle_weight"] == "0" for r in rows)
    assert {r["ratio"] for r in rows} == {"1.000000"}


_NOT_EXACT = (
    'must be an int, a Fraction or a string such as "3/10", '
    "with no exponent and a nonzero denominator"
)


def test_zero_denominator_radius_is_an_error(capsys):
    for argv in (
        ("gen", "--kind", "unit-disk", "--n", "5", "--radius", "1/0"),
        ("bench", "--kinds", "unit-disk", "--sizes", "6", "--radius", "1/0"),
        ("bench", "--kinds", "gnp,unit-disk", "--sizes", "6", "--radius", "1/0"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: radius '1/0' {_NOT_EXACT}\n"


@pytest.mark.parametrize(
    "radius, message",
    [
        ("1e5000", f"radius '1e5000' {_NOT_EXACT}"),
        ("1/0", f"radius '1/0' {_NOT_EXACT}"),
        ("-1/2", "radius must be nonnegative"),
    ],
    ids=["exponent", "zero-denominator", "negative"],
)
def test_gen_and_bench_refuse_a_bad_radius_before_any_solve(capsys, monkeypatch, radius, message):
    swept = []
    monkeypatch.setattr(cli_mod, "run_bench", lambda tasks, jobs=1: swept.append(tasks))
    for argv in (
        ("gen", "--kind", "unit-disk", "--n", "5"),
        ("bench", "--kinds", "unit-disk", "--sizes", "6"),
        ("bench", "--kinds", "gnp,unit-disk", "--sizes", "8", "--k-values", "1",
         "--per-cell", "3"),
    ):
        code, out, err = _run(capsys, *argv, f"--radius={radius}")
        assert (code, out, err) == (1, "", f"error: {message}\n")
    assert swept == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--sizes", "6,0"), "need at least one node"),
        (("--k-values", "1,0"), "k must be at least 1"),
        (("--m-offsets", "0,-1"), "m must be at least k"),
        (("--kinds", "unit-disk,gnp", "--p", "1.5"), "edge probability must lie in [0, 1]"),
        (("--weights", "9:1"), "weight range must be 0 <= lo <= hi"),
        (("--radius=-1/2",), "radius must be nonnegative"),
        (("--kinds", "gnp,lattice"), "unknown instance kind 'lattice'"),
    ],
    ids=["size", "k", "m-offset", "p", "weights", "radius", "kind"],
)
def test_bench_refuses_a_bad_cell_before_any_solve(capsys, monkeypatch, argv, message):
    solved = []

    def spy(solve):
        def recorded(instance, config):
            solved.append(instance.n)
            return solve(instance, config)
        return recorded

    for variant, solve in list(solver_mod.SOLVERS.items()):
        monkeypatch.setitem(solver_mod.SOLVERS, variant, spy(solve))
    code, out, err = _run(
        capsys, "bench", "--sizes", "6", "--k-values", "1", "--per-cell", "2", "--p", "0.7", *argv
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert solved == []


def test_solve_refuses_an_exponent_coordinate(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "kind": "kmcds-instance", "schema_version": 1, "k": 1, "m": 1, "radius": "1",
        "nodes": [{"id": 0, "weight": 1, "x": "0", "y": "0"},
                  {"id": 1, "weight": 1, "x": "0", "y": "1e5000"}],
        "edges": [],
    }))
    code, out, err = _run(capsys, "solve", str(inst))
    assert (code, out, err) == (1, "", f"error: coordinate '1e5000' {_NOT_EXACT}\n")


def test_parse_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "kind": oops\n}')
    code, _, err = _run(capsys, "solve", str(bad))
    assert code == 1
    assert "line 2" in err

    code, _, err = _run(capsys, "solve", str(tmp_path / "absent.json"))
    assert code == 1


def test_deeply_nested_json_is_an_error_line(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    _run(capsys, "gen", "--kind", "gnp", "--n", "6", "--p", "1.0", "-o", str(inst))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for argv in (
        ("solve", str(deep)),
        ("verify", str(inst), "--certificate", str(deep)),
        ("verify", str(inst), "--from-report", str(deep)),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: the JSON document is nested too deeply\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "{inst}", "--backend", "exact"), "exact backend capped at 20 pool nodes"),
        (
            ("gen", "--kind", "gnp", "--n", "5", "--p", "1.0", "--weights", "5"),
            "weight range looks like LO:HI, e.g. 1:100",
        ),
        (("verify", "{inst}", "--from-report", "{kind_x}"), "report file carries no node set"),
        (("verify", "{inst}", "--certificate", "{bad}"), "line 2, column 11: Expecting value"),
    ],
    ids=["exact-pool-cap", "weight-range", "no-node-set", "bad-certificate-json"],
)
def test_error_paths_exit_one(tmp_path, capsys, argv, message):
    files = {name: tmp_path / f"{name}.json" for name in ("inst", "kind_x", "bad")}
    _run(
        capsys, "gen", "--kind", "gnp", "--n", "40", "--p", "0.3",
        "--k", "2", "--m", "2", "--seed", "1", "-o", str(files["inst"]),
    )
    files["kind_x"].write_text('{"kind": "x"}')
    files["bad"].write_text('{\n  "kind": oops\n}')
    code, _, err = _run(capsys, *(a.format(**files) for a in argv))
    assert code == 1
    assert err == f"error: {message}\n"


def test_module_entry_point_prints_help():
    done = run_python(["-m", "kmcds", "--help"], timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: kmcds ") and "{gen,solve,oracle,verify,bench}" in done.stdout


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--variant", "nonsense", "x.json"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_gen_requires_the_kind_parameters(capsys):
    code, _, err = _run(capsys, "gen", "--kind", "gnp", "--n", "5")
    assert code == 1 and "--p" in err
    code, _, err = _run(capsys, "gen", "--kind", "unit-disk", "--n", "5")
    assert code == 1 and "--radius" in err


def test_oracle_exit_codes(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    _run(
        capsys, "gen", "--kind", "gnp", "--n", "6", "--p", "1.0",
        "--k", "2", "--m", "2", "-o", str(inst),
    )
    code, out, _ = _run(capsys, "oracle", str(inst))
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["weight"] >= 1
    assert "elapsed_s" not in doc

    sparse = tmp_path / "sparse.json"
    _run(
        capsys, "gen", "--kind", "gnp", "--n", "6", "--p", "0.0",
        "--k", "1", "--m", "1", "-o", str(sparse),
    )
    code, out, _ = _run(capsys, "oracle", str(sparse))
    assert code == 2
    assert json.loads(out)["members"] is None


def test_oracle_timings_flag(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    _run(
        capsys, "gen", "--kind", "gnp", "--n", "5", "--p", "1.0", "-o", str(inst),
    )
    code, out, _ = _run(capsys, "oracle", str(inst), "--timings")
    assert code == 0
    assert "elapsed_s" in json.loads(out)


def test_solve_unit_disk_variant(tmp_path, capsys):
    inst = tmp_path / "disk.json"
    _run(
        capsys, "gen", "--kind", "unit-disk", "--n", "14", "--radius", "3/5",
        "--seed", "1", "--k", "1", "--m", "1", "-o", str(inst),
    )
    code, out, _ = _run(capsys, "solve", str(inst), "--variant", "unit-disk")
    assert code == 0
    assert json.loads(out)["variant"] == "unit-disk"


def test_solve_timings_are_optional(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    _run(
        capsys, "gen", "--kind", "gnp", "--n", "7", "--p", "0.9", "-o", str(inst),
    )
    code, out, _ = _run(capsys, "solve", str(inst))
    assert "timings_s" not in json.loads(out)
    code, out, _ = _run(capsys, "solve", str(inst), "--timings")
    assert "timings_s" in json.loads(out)


def test_bench_produces_sorted_csv(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    out_json = tmp_path / "rows.json"
    code, _, _ = _run(
        capsys, "bench", "--kinds", "gnp", "--sizes", "8,10", "--k-values", "1,2",
        "--per-cell", "2", "--p", "0.7", "--oracle-cap", "10",
        "-o", str(out_csv), "--json", str(out_json),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert rows
    ids = [r["instance_id"] for r in rows]
    assert ids == sorted(ids)
    for r in rows:
        assert r["variant"] == "general"
        if r["oracle_weight"]:
            assert float(r["ratio"]) >= 1.0 or r["ratio"] == "inf"
    doc = json.loads(out_json.read_text())
    assert doc["kind"] == "kmcds-bench"
    assert len(doc["rows"]) == len(rows)


def _choices(subcommand, dest):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return tuple(next(a for a in sub.choices[subcommand]._actions if a.dest == dest).choices)


def test_name_choices_come_from_the_solver():
    assert _choices("solve", "variant") == tuple(solver_mod.SOLVERS)
    for command in ("solve", "bench"):
        assert _choices(command, "backend") == tuple(BACKENDS)
        assert _choices(command, "attachment_rule") == solver_mod.ATTACHMENT_RULES


def test_bench_hands_every_task_the_whole_config(capsys, monkeypatch):
    swept = []

    def capture(tasks, jobs=1):
        swept.append(tasks)
        return [], 0

    monkeypatch.setattr(cli_mod, "run_bench", capture)
    for extra, witnesses in (([], True), (["--no-witnesses"], False)):
        assert _run(capsys, "bench", "--kinds", "gnp", *extra)[0] == 0
        tasks = swept.pop()
        assert tasks and all(t.config.collect_witnesses is witnesses for t in tasks)


def test_bench_rejects_unknown_names(capsys):
    code, _, err = _run(capsys, "bench", "--kinds", "lattice")
    assert code == 1 and "lattice" in err
    code, _, err = _run(capsys, "bench", "--variants", "magic")
    assert code == 1 and "magic" in err


def test_bench_guess_root_needs_small_k(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code, _, _ = _run(
        capsys, "bench", "--kinds", "gnp", "--sizes", "8", "--k-values", "1,2",
        "--variants", "general,guess-root", "--per-cell", "1", "--p", "0.8",
        "-o", str(out_csv),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    by_variant = {r["variant"] for r in rows}
    assert by_variant == {"general", "guess-root"}
    assert all(r["k"] == "2" for r in rows if r["variant"] == "guess-root")
