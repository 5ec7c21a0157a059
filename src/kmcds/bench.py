"""Benchmark sweeps over generated instance grids.

A sweep enumerates (kind, n, k, m, variant) cells, generates a fixed
number of seeded instances per cell, solves each, optionally runs the
exact oracle on small instances, and emits one row per solve. Rows are
sorted by instance id before emission so concurrent execution cannot
reorder output.
"""

from __future__ import annotations

import csv
import io
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

from .errors import InfeasibleError
from .generators import gen_gnp, gen_unit_disk
from .graph import Instance
from .oracle import _ORACLE_NODE_CAP, opt_kmcds
from .solver import SOLVERS, SolverConfig


@dataclass(frozen=True, slots=True)
class BenchRow:
    instance_id: str
    n: int
    edges: int
    k: int
    m: int
    variant: str
    alg_weight: int
    oracle_weight: int | None
    ratio: str | None
    weight_dominating: int
    weight_connectors: int
    weight_pair_connectors: int
    elapsed_ms: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class BenchTask:
    """One pending solve, picklable so sweeps can fan out to processes."""

    instance_id: str
    kind: str
    n: int
    p: float
    radius: str
    weight_lo: int
    weight_hi: int
    seed: int
    k: int
    m: int
    variant: str
    config: SolverConfig
    oracle_cap: int


def _build_instance(task: BenchTask) -> Instance:
    if task.kind == "gnp":
        return gen_gnp(
            task.n, task.p, (task.weight_lo, task.weight_hi), task.seed, task.k, task.m
        )
    return gen_unit_disk(
        task.n, task.radius, (task.weight_lo, task.weight_hi), task.seed, task.k, task.m
    )


def _ratio_str(alg: int, opt: int) -> str:
    if opt == 0:
        return "1.000000" if alg == 0 else "inf"
    return f"{alg / opt:.6f}"


def run_task(task: BenchTask) -> BenchRow | None:
    """Solve one task; None when the generated instance is infeasible."""
    instance = _build_instance(task)
    start = time.perf_counter()
    try:
        report = SOLVERS[task.variant](instance, task.config)
    except InfeasibleError:
        return None
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    oracle_weight = None
    ratio = None
    if instance.n <= task.oracle_cap:
        result = opt_kmcds(instance)
        if result.feasible:
            oracle_weight = result.weight
            ratio = _ratio_str(report.weights["total"], result.weight)
    return BenchRow(
        instance_id=task.instance_id,
        n=instance.n,
        edges=len(instance.graph.edges),
        k=task.k,
        m=task.m,
        variant=task.variant,
        alg_weight=report.weights["total"],
        oracle_weight=oracle_weight,
        ratio=ratio,
        weight_dominating=report.weights["dominating"],
        weight_connectors=report.weights["connectors"],
        weight_pair_connectors=report.weights["pair_connectors"],
        elapsed_ms=elapsed_ms,
    )


def build_tasks(
    kinds: list[str],
    sizes: list[int],
    k_values: list[int],
    m_offsets: list[int],
    variants: list[str],
    per_cell: int,
    seed: int,
    p: float,
    radius: str,
    weight_range: tuple[int, int],
    config: SolverConfig,
    oracle_cap: int,
) -> list[BenchTask]:
    """Deterministic task grid; ids encode every generation parameter.

    guess-root runs only for k in {2, 3} and the unit-disk variant only on
    unit-disk instances; other cells skip it, and a grid left with no task
    is a ValueError naming the rule. Every task carries ``config``.
    ``oracle_cap`` runs the oracle on instances of at most that many
    nodes (0: never); a cap above the oracle's own is refused. Each
    cell's instance is built here once at one node, so whatever its
    generator or :class:`Instance` refuses is refused before the first
    solve.
    """
    if not 0 <= oracle_cap <= _ORACLE_NODE_CAP:
        raise ValueError(
            f"oracle cap must be between 0 and the oracle's {_ORACLE_NODE_CAP}-node cap, "
            f"got {oracle_cap}"
        )
    for kind in kinds:
        if kind not in ("gnp", "unit-disk"):
            raise ValueError(f"unknown instance kind {kind!r}")
    for variant in variants:
        if variant not in SOLVERS:
            raise ValueError(f"unknown variant {variant!r}")
    tasks = []
    counter = 0
    for kind in kinds:
        for n in sizes:
            for k in k_values:
                for off in m_offsets:
                    m = k + off
                    for i in range(per_cell):
                        inst_seed = seed + counter
                        counter += 1
                        for variant in variants:
                            if variant == "guess-root" and k not in (2, 3):
                                continue
                            if variant == "unit-disk" and kind != "unit-disk":
                                continue
                            tasks.append(
                                BenchTask(
                                    instance_id=(
                                        f"{kind}-n{n:03d}-k{k}-m{m}-s{inst_seed}"
                                        f"-{variant}"
                                    ),
                                    kind=kind,
                                    n=n,
                                    p=p,
                                    radius=radius,
                                    weight_lo=weight_range[0],
                                    weight_hi=weight_range[1],
                                    seed=inst_seed,
                                    k=k,
                                    m=m,
                                    variant=variant,
                                    config=config,
                                    oracle_cap=oracle_cap,
                                )
                            )
    if not tasks:
        rules = []
        if "guess-root" in variants:
            rules.append("guess-root runs only for k in {2, 3}")
        if "unit-disk" in variants:
            rules.append("the unit-disk variant runs only on unit-disk instances")
        raise ValueError("the grid plans no solve: " + "; ".join(rules))
    # a cell's tasks differ only in seed and variant, and neither can be refused
    cells = {
        (t.kind, t.n, t.p, t.radius, t.weight_lo, t.weight_hi, t.k, t.m): t for t in tasks
    }
    for task in cells.values():
        _build_instance(replace(task, n=min(1, task.n)))
    return tasks


def run_bench(tasks: list[BenchTask], jobs: int = 1) -> tuple[list[BenchRow], int]:
    """Run all tasks, return (rows sorted by instance id, skipped count).

    ``jobs`` is capped at the task count and the CPU count: with the fork
    start method the pool starts all its workers at the first submit.
    """
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_task, tasks))
    else:
        results = [run_task(t) for t in tasks]
    rows = [r for r in results if r is not None]
    rows.sort(key=lambda r: r.instance_id)
    return rows, len(results) - len(rows)


def rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(f.name for f in fields(BenchRow))
    for row in rows:
        writer.writerow("" if x is None else x for x in row.to_dict().values())
    return buf.getvalue()
