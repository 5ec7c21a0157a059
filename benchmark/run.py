"""End-to-end benchmark of the kmcds solvers.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload gnp-general --seed 1 --seconds 32 --trace 0

One operation is what ``kmcds solve`` does: read an instance file, solve it
with the workload's variant and the default config, serialize the report.
A run (one process, no threads) makes its instances from ``--seed``, times
the set-up twice, runs whole round-robin rounds over the instances for
about ``--seconds``, times the set-up twice more, and finally checks every output
with ``checks.py``, which shares no code with the program. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the metrics (end-to-end ones with ``--trace 0``, per-layer ones from
``layers.py`` with ``--trace 1``). README.md says why the workloads are
what they are.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 4
MIN_OPS = 40  # so that the 75th percentile has at least ten samples above it


@dataclass(frozen=True)
class Family:
    """``count`` instances of one shape; gnp draws keep about ``edges`` edges."""

    kind: str  # "gnp" or "unit-disk"
    n: int
    k: int
    m: int
    count: int
    edges: int = 0  # gnp: target edge count M, so p = M / C(n, 2)
    radius: str = ""  # unit-disk: exact radius


@dataclass(frozen=True)
class Workload:
    variant: str
    families: tuple[Family, ...]


WORKLOADS = {
    "gnp-general": Workload("general", (
        Family("gnp", n=110, k=2, m=2, count=5, edges=660),
        Family("gnp", n=90, k=3, m=3, count=5, edges=500),
    )),
    "guess-root": Workload("guess-root", (
        Family("gnp", n=24, k=2, m=2, count=12, edges=50),
        Family("gnp", n=20, k=3, m=3, count=12, edges=46),
    )),
    "unit-disk": Workload("unit-disk", (
        Family("unit-disk", n=80, k=2, m=3, count=10, radius="9/40"),
    )),
}
WEIGHTS = (1, 100)


@dataclass
class Planned:
    family: Family
    seed: int
    text: str  # the instance file as the program wrote it while planning
    graph: object  # checks.Graph


def _generate(kmcds, family: Family, seed: int):
    if family.kind == "gnp":
        p = family.edges / (family.n * (family.n - 1) / 2)
        return kmcds.generators.gen_gnp(family.n, p, WEIGHTS, seed, family.k, family.m)
    return kmcds.generators.gen_unit_disk(
        family.n, Fraction(family.radius), WEIGHTS, seed, family.k, family.m
    )


def plan(kmcds, checks, workload: Workload, name: str, seed: int) -> tuple[list[Planned], list[str]]:
    """Pick the generator seeds of every instance, from the run's seed.

    A draw is kept when its graph is k-connected (so a (k, m)-cds exists,
    as m >= k) and, for gnp, when its edge count is within M / 200 of M
    (this conditions G(n, p) on its edge count, which makes the cost of a
    solve vary much less from instance to instance).
    """
    rng = random.Random(f"kmcds-benchmark/{name}/{seed}")
    problems: list[str] = []
    chosen: list[list[Planned]] = []
    for family in workload.families:
        kept: list[Planned] = []
        while len(kept) < family.count:
            draw = rng.randrange(1 << 31)
            inst = _generate(kmcds, family, draw)
            if family.kind == "gnp" and abs(len(inst.graph.edges) - family.edges) > max(1, family.edges // 200):
                continue
            text = kmcds.serialize.dump_instance(inst)
            graph = checks.graph_from_doc(json.loads(text))
            if graph.coords is not None and checks.disk_edges(graph.coords, graph.radius) != set(graph.edges):
                problems.append(f"generator seed {draw}: disk edges disagree with integer distances")
            if checks.is_k_connected(graph.adj, (1 << graph.n) - 1, graph.k):
                kept.append(Planned(family, draw, text, graph))
        chosen.append(kept)
    # interleave the families so that a round alternates between them
    order = []
    for i in range(max(len(kept) for kept in chosen)):
        order += [kept[i] for kept in chosen if i < len(kept)]
    return order, problems


class Runner:
    def __init__(self, kmcds, checks, workload: Workload, planned: list[Planned], workdir: Path):
        self.kmcds = kmcds
        self.checks = checks
        self.variant = workload.variant
        self.planned = planned
        self.paths = [workdir / f"instance-{i:02d}.json" for i in range(len(planned))]
        self.config = kmcds.solver.SolverConfig()
        self.outputs: list[str | None] = [None] * len(planned)
        self.problems: list[str] = []
        self.failures: list[str] = []

    def setup(self, rep: int) -> float:
        """Generate and write every instance file, then one warm-up operation."""
        t0 = time.perf_counter()
        for plan_entry, path in zip(self.planned, self.paths):
            inst = _generate(self.kmcds, plan_entry.family, plan_entry.seed)
            text = self.kmcds.serialize.dump_instance(inst)
            path.write_text(text, encoding="utf-8")
            if text != plan_entry.text:
                self.problems.append(f"{path.name}: generator output changed between draws")
        self.operation(rep % len(self.paths))
        return time.perf_counter() - t0

    def operation(self, index: int) -> float | None:
        """One solve from file to serialized report; None when it raised."""
        solver = self.kmcds.solver
        solve = {
            "general": solver.solve_general,
            "unit-disk": solver.solve_unit_disk,
            "guess-root": solver.solve_guess_root,
        }[self.variant]
        t0 = time.perf_counter()
        try:
            instance = self.kmcds.serialize.read_instance(str(self.paths[index]))
            text = self.kmcds.serialize.dump_report(solve(instance, self.config))
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{self.paths[index].name}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        first = self.outputs[index]
        if first is None:
            self.outputs[index] = text
        elif text != first:
            self.problems.append(f"{self.paths[index].name}: report differs between repeats")
        return elapsed

    def check_outputs(self) -> None:
        for i, (plan_entry, text) in enumerate(zip(self.planned, self.outputs)):
            if text is None:
                self.problems.append(f"{self.paths[i].name}: no successful solve")
                continue
            for problem in self.checks.report_problems(plan_entry.graph, json.loads(text)):
                self.problems.append(f"{self.paths[i].name}: {problem}")


def _import_program():
    """Import kmcds from this checkout's ``src``; exit with status 1 when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kmcds
        import kmcds.generators
        import kmcds.serialize
        import kmcds.solver
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import kmcds from {src}: {exc}")
    if Path(kmcds.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"benchmark: kmcds was imported from {kmcds.__file__}, not from {src}")
    return kmcds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kmcds = _import_program()
    sys.path.insert(0, str(HERE))
    import checks
    import layers

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"instances-{tag}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = layers.Tracer() if args.trace else None
    t_run = time.perf_counter()
    try:
        planned, plan_problems = plan(kmcds, checks, workload, args.workload, args.seed)
        plan_s = time.perf_counter() - t_run
        runner = Runner(kmcds, checks, workload, planned, workdir)
        runner.problems += plan_problems
        if tracer is not None:
            tracer.install()

        # half of the set-ups run before the measured rounds and half after,
        # so that their median spans the machine's slow and fast spells
        setup_seconds = []
        for rep in range(SETUP_REPS // 2):
            gc.collect()
            setup_seconds.append(runner.setup(rep))

        if tracer is not None:
            tracer.phase = "op"
            tracer.keep_spans = True
        gc.collect()
        op_seconds: list[float] = []
        attempted = 0
        rounds = 0
        t_start = time.perf_counter()
        while True:
            for index in range(len(planned)):
                elapsed = runner.operation(index)
                attempted += 1
                if elapsed is not None:
                    op_seconds.append(elapsed)
                if tracer is not None:
                    tracer.keep_spans = False
            rounds += 1
            wall = time.perf_counter() - t_start
            # stop at the whole round that ends closest to --seconds
            if wall + wall / rounds / 2 >= args.seconds and attempted >= MIN_OPS:
                break

        if tracer is not None:
            tracer.phase = "setup"
        for rep in range(SETUP_REPS // 2, SETUP_REPS):
            gc.collect()
            setup_seconds.append(runner.setup(rep))
        if tracer is not None:
            tracer.phase = "check"
            tracer.uninstall()
        t_check = time.perf_counter()
        runner.check_outputs()
        check_s = time.perf_counter() - t_check
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = attempted - len(op_seconds)  # set-up failures are listed in the result file
    if args.trace:
        metrics = tracer.layer_metrics(len(op_seconds) or 1, SETUP_REPS, op_seconds or [0.0], setup_seconds)
        OUT.joinpath(f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.trace_document()) + "\n", encoding="utf-8")
    else:
        weights = [json.loads(t)["weights"]["total"] for t in runner.outputs if t is not None]
        times = op_seconds or [0.0, 0.0]  # every operation failed, and correct is false
        metrics = {
            "solve_s.p50": (statistics.median(times), "s"),
            "solve_s.tail": (statistics.quantiles(times, n=4)[2], "s"),
            "solves_per_s": (len(op_seconds) / wall, "1/s"),
            "setup_s": (statistics.median(setup_seconds), "s"),
            "solution_weight": (sum(weights), "weight"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": [[p.family.kind, p.family.n, p.family.k, p.family.m, p.seed] for p in planned],
        "op_seconds": op_seconds,
        "setup_seconds": setup_seconds,
        "wall_s": wall,
        "rounds": rounds,
        "plan_s": plan_s,
        "check_s": check_s,
        "run_s": time.perf_counter() - t_run,
        "problems": runner.problems,
        "failures": runner.failures,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    OUT.joinpath(f"result-{tag}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1) + "\n", encoding="utf-8")
    for line in runner.problems[:20] + runner.failures[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
