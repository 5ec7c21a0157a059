"""Benchmark grid construction and the worker pool."""

import re
from dataclasses import fields, replace

import pytest

import kmcds.bench as bench_mod
from kmcds import SolverConfig
from kmcds.bench import BenchRow, BenchTask, build_tasks, rows_to_csv, run_bench, run_task
from kmcds.solver import SOLVERS


def _tasks():
    return build_tasks(
        kinds=["gnp"],
        sizes=[8, 10],
        k_values=[1, 2],
        m_offsets=[0],
        variants=["general"],
        per_cell=2,
        seed=0,
        p=0.7,
        radius="1/2",
        weight_range=(1, 20),
        config=SolverConfig(collect_witnesses=False),
        oracle_cap=10,
    )


def test_grid_is_deterministic():
    a, b = _tasks(), _tasks()
    assert a == b
    assert len(a) == 8  # 2 sizes x 2 k x 2 per cell
    assert all(isinstance(t, BenchTask) for t in a)
    assert len({t.instance_id for t in a}) == len(a)


def _stable(row):
    d = row.to_dict()
    d.pop("elapsed_ms")
    return d


def test_parallel_rows_match_serial():
    tasks = _tasks()
    serial, skipped_s = run_bench(tasks, jobs=1)
    parallel, skipped_p = run_bench(tasks, jobs=2)
    assert [_stable(r) for r in serial] == [_stable(r) for r in parallel]
    assert skipped_s == skipped_p


def test_workers_are_capped_by_tasks_and_cpus(monkeypatch):
    # a stand-in pool records its size and maps in-process, so no worker starts
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(bench_mod, "ProcessPoolExecutor", RecordingPool)
    tasks = _tasks()
    serial = {c: [_stable(r) for r in run_bench(tasks[:c], jobs=1)[0]] for c in (2, 8)}
    for cpus, jobs, count, size in (
        (4, 5000, 2, 2), (4, 5000, 8, 4), (4, 3, 8, 3), (None, 5000, 8, None),
    ):
        monkeypatch.setattr(bench_mod.os, "cpu_count", lambda: cpus)
        sizes.clear()
        rows, _ = run_bench(tasks[:count], jobs=jobs)
        assert sizes == ([size] if size else [])  # one worker runs in-process
        assert [_stable(r) for r in rows] == serial[count]


def test_csv_shape():
    rows, _ = run_bench(_tasks(), jobs=1)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0].startswith("instance_id,n,edges,k,m,variant,alg_weight")
    assert lines[0].split(",") == [f.name for f in fields(BenchRow)]
    assert len(lines) == len(rows) + 1


def test_a_task_solves_under_its_own_config(monkeypatch):
    task = replace(_tasks()[-1], config=SolverConfig())  # witnesses on
    solve = SOLVERS["general"]
    used = []

    def spy(instance, config):
        used.append(config)
        return solve(instance, config)

    monkeypatch.setitem(SOLVERS, "general", spy)
    assert run_task(task) is not None
    assert used == [task.config]


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"sizes": [6, 0]}, "need at least one node"),
        ({"k_values": [1, 0]}, "k must be at least 1"),
        ({"m_offsets": [0, -1]}, "m must be at least k"),
        ({"kinds": ["unit-disk", "gnp"], "p": 1.5}, "edge probability must lie in [0, 1]"),
        ({"kinds": ["gnp", "unit-disk"], "radius": "-1/2"}, "radius must be nonnegative"),
        ({"kinds": ["gnp", "lattice"]}, "unknown instance kind 'lattice'"),
    ],
    ids=["size", "k", "m-offset", "p", "radius", "kind"],
)
def test_a_bad_cell_is_refused_before_any_solve(monkeypatch, changes, message):
    calls = []

    def spy(solve):
        def recorded(instance, config):
            calls.append(instance.n)
            return solve(instance, config)
        return recorded

    for variant, solve in list(SOLVERS.items()):
        monkeypatch.setitem(SOLVERS, variant, spy(solve))
    grid = dict(
        kinds=["gnp"], sizes=[6], k_values=[1], m_offsets=[0], variants=["general"],
        per_cell=2, seed=0, p=0.7, radius="1/2", weight_range=(1, 9),
        config=SolverConfig(), oracle_cap=0,
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_bench(build_tasks(**{**grid, **changes}))
    assert calls == []


def test_each_cell_is_checked_once(monkeypatch):
    # p, radius and weights are the grid's, so a task's id up to its seed
    # names its cell: kind, n, k and m
    built = []
    build = bench_mod._build_instance

    def counted(task):
        built.append(task.instance_id.rsplit("-s", 1)[0])
        return build(task)

    monkeypatch.setattr(bench_mod, "_build_instance", counted)
    tasks = build_tasks(
        kinds=["gnp", "unit-disk"], sizes=[6, 8], k_values=[1, 2], m_offsets=[0, 1],
        variants=["general", "guess-root", "unit-disk"], per_cell=3, seed=0, p=0.7,
        radius="1/2", weight_range=(1, 9), config=SolverConfig(), oracle_cap=0,
    )
    cells = {t.instance_id.rsplit("-s", 1)[0] for t in tasks}
    assert len(tasks) == 96 and len(cells) == 16
    assert sorted(built) == sorted(cells)
