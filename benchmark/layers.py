"""Outside-in tracing of kmcds layers for the benchmark's traced run.

The tracer replaces public functions where each module binds them (for
example ``kmcds.solver.find_k_connectivity_violation``) and methods of
``SplitFlowNetwork`` and ``Graph`` with wrappers that record one span per
call: name, parent span, start, end and, for flow calls, the units pushed.
Nothing inside the package changes. A span's self time is its duration
minus the durations of its direct child spans.

Spans are kept in memory: every span of the run's first measured operation,
for the trace file, and per (phase, name, parent) sums of calls, inclusive
time, self time, units and raised exceptions for the metrics.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter

# units pushed, read from the result of a flow method
_FLOW_UNITS = {
    "max_flow": lambda out: out,
    "min_cost_flow": lambda out: out[0],
}
# (module, attribute, span name, how to read the span's units from the result)
FUNCTIONS = [
    ("kmcds.serialize", "load_instance", "serialize.load", None),
    ("kmcds.serialize", "dump_report", "serialize.dump_report", None),
    ("kmcds.serialize", "dump_instance", "serialize.dump_instance", None),
    ("kmcds.generators", "gen_gnp", "generators.gen_gnp", None),
    ("kmcds.generators", "gen_unit_disk", "generators.gen_unit_disk", None),
    ("kmcds.solver", "solve_general", "solver.solve_general", None),
    ("kmcds.solver", "solve_unit_disk", "solver.solve_unit_disk", None),
    ("kmcds.solver", "solve_guess_root", "solver.solve_guess_root", None),
    ("kmcds.solver", "_solve_pipeline", "solver.pipeline", None),
    ("kmcds.solver", "precheck", "solver.precheck", None),
    ("kmcds.solver", "_run_attempt", "solver.augment", None),
    ("kmcds.solver", "_final_prune", "solver.prune", len),
    ("kmcds.solver", "_check_final", "solver.check_final", None),
    ("kmcds.solver", "find_k_connectivity_violation", "connectivity.violation", None),
    ("kmcds.solver", "is_k_connected", "connectivity.is_k_connected", None),
    ("kmcds.solver", "is_m_dominating", "connectivity.is_m_dominating", None),
    ("kmcds.solver", "build_certificate", "connectivity.certificate", None),
    ("kmcds.solver", "greedy_mds", "domset.greedy", None),
    ("kmcds.solver", "solve_rooted_nodeweight", "rooted.solve", None),
    ("kmcds.solver", "solve_rooted_edgecost", "rooted.solve", None),
    ("kmcds.solver", "minimal_augmenting_forest", "augment.forest", None),
    ("kmcds.solver", "min_weight_k_paths", "augment.pair_path", None),
    ("kmcds.augment", "is_k_connected", "connectivity.is_k_connected", None),
    ("kmcds.augment", "local_connectivity", "connectivity.local", None),
    ("kmcds.rooted", "prune_selection", "rooted.prune", None),
    ("kmcds.rooted", "find_infeasible_terminal", "rooted.feasibility", None),
]
METHODS = [
    ("kmcds.flow", "SplitFlowNetwork", "__init__", "flow.network_build"),
    ("kmcds.flow", "SplitFlowNetwork", "reset", "flow.reset"),
    ("kmcds.flow", "SplitFlowNetwork", "max_flow", "flow.max_flow"),
    ("kmcds.flow", "SplitFlowNetwork", "min_cost_flow", "flow.min_cost"),
    ("kmcds.graph", "Graph", "__init__", "graph.build"),
]
STATIC_METHODS = [
    ("kmcds.graph", "Instance", "unit_disk", "graph.disk_instance"),
]
SOLVE_SPANS = ("solver.solve_general", "solver.solve_unit_disk", "solver.solve_guess_root")
# direct children of solve_guess_root that are not its candidate loop
_GUESS_ROOT_STAGES = (
    "solver.precheck", "domset.greedy", "solver.prune", "solver.check_final",
    "connectivity.certificate", "solver.pipeline",
)


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.keep_spans = False
        self.spans: list[tuple] = []
        # (phase, name, parent name) -> [calls, inclusive s, self s, units, raised]
        self.sums: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self._stack: list[list] = []  # open spans: [name, child seconds, span id]
        self._next_id = 0
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, units=None):
        stack = self._stack
        sums = self.sums

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            raised = 1
            value = 0
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = 0
                if units is not None:
                    value = units(out)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                if parent is not None:
                    parent[1] += dt
                entry = sums[(self.phase, name, parent[0] if parent else None)]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
                entry[3] += value
                entry[4] += raised
                if self.keep_spans:
                    self.spans.append((
                        span_id, parent[2] if parent else None, name,
                        t0, t1, value, bool(raised),
                    ))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, units in FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                self._replace(module, attr, self.wrap(fn, name, units))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            fn = cls.__dict__.get(attr)
            if fn is not None:
                self._replace(cls, attr, self.wrap(fn, name, _FLOW_UNITS.get(attr)))
        for module_name, cls_name, attr, name in STATIC_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            fn = cls.__dict__.get(attr)
            if fn is not None:
                self._replace(cls, attr, staticmethod(self.wrap(fn.__func__, name)))

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- aggregation -----------------------------------------------------

    def _total(self, phase: str, name: str, field: int, parents=None) -> float:
        return sum(
            entry[field]
            for (ph, nm, parent), entry in self.sums.items()
            if ph == phase and nm == name and (parents is None or parent in parents)
        )

    def calls(self, name, parents=None, phase="op"):
        return self._total(phase, name, 0, parents)

    def inclusive(self, name, parents=None, phase="op"):
        return self._total(phase, name, 1, parents)

    def self_time(self, name, parents=None, phase="op"):
        return self._total(phase, name, 2, parents)

    def units(self, name, parents=None, phase="op"):
        return self._total(phase, name, 3, parents)

    def raised(self, name, parents=None, phase="op"):
        return self._total(phase, name, 4, parents)

    def layer_metrics(self, ops: int, setup_reps: int, op_seconds: list[float],
                      setup_seconds: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: per-operation means over the measured phase."""
        per_op = 1.0 / ops
        gr = ("solver.solve_guess_root",)
        tried = self.calls("rooted.solve", gr)
        feasible = tried - self.raised("rooted.solve", gr)
        candidates = self.inclusive("solver.solve_guess_root") - sum(
            self.inclusive(stage, gr) for stage in _GUESS_ROOT_STAGES
        )
        trials = self.calls("connectivity.is_m_dominating", ("solver.prune",))
        dropped = self.units("solver.prune")
        out = {
            "connectivity.violation_s": (self.self_time("connectivity.violation"), "s/op"),
            "connectivity.violation_flows": (
                self.calls("flow.max_flow", ("connectivity.violation",)), "count/op"),
            "connectivity.is_k_connected_calls": (
                self.calls("connectivity.is_k_connected"), "count/op"),
            "connectivity.is_k_connected_s": (
                self.self_time("connectivity.is_k_connected"), "s/op"),
            "connectivity.certificate_flows": (
                self.calls("flow.max_flow", ("connectivity.certificate",)), "count/op"),
            "connectivity.certificate_s": (
                self.self_time("connectivity.certificate"), "s/op"),
            "flow.resets": (self.calls("flow.reset"), "count/op"),
            "flow.reset_s": (self.self_time("flow.reset"), "s/op"),
            "flow.max_flow_calls": (self.calls("flow.max_flow"), "count/op"),
            "flow.max_flow_units": (self.units("flow.max_flow"), "count/op"),
            "flow.max_flow_s": (self.self_time("flow.max_flow"), "s/op"),
            "flow.min_cost_calls": (self.calls("flow.min_cost"), "count/op"),
            "flow.min_cost_units": (self.units("flow.min_cost"), "count/op"),
            "flow.min_cost_s": (self.self_time("flow.min_cost"), "s/op"),
            "flow.networks_built": (self.calls("flow.network_build"), "count/op"),
            "flow.network_build_s": (self.self_time("flow.network_build"), "s/op"),
            "graph.graphs_built": (self.calls("graph.build"), "count/op"),
            "graph.build_s": (self.self_time("graph.build"), "s/op"),
            "graph.disk_instance_s": (self.self_time("graph.disk_instance"), "s/op"),
            "serialize.load_s": (self.self_time("serialize.load"), "s/op"),
            "serialize.dump_report_s": (self.self_time("serialize.dump_report"), "s/op"),
            "domset.greedy_s": (self.self_time("domset.greedy"), "s/op"),
            "rooted.solve_calls": (self.calls("rooted.solve"), "count/op"),
            "rooted.solve_s": (self.self_time("rooted.solve"), "s/op"),
            "rooted.prune_s": (self.self_time("rooted.prune"), "s/op"),
            "rooted.feasibility_checks": (self.calls("rooted.feasibility"), "count/op"),
            "augment.forest_s": (self.self_time("augment.forest"), "s/op"),
            "augment.pair_path_calls": (self.calls("augment.pair_path"), "count/op"),
            "augment.pair_path_s": (self.self_time("augment.pair_path"), "s/op"),
            "solver.precheck_s": (self.inclusive("solver.precheck"), "s/op"),
            "solver.dominating_s": (self.inclusive("domset.greedy"), "s/op"),
            "solver.augment_s": (self.inclusive("solver.augment"), "s/op"),
            "solver.candidates_s": (candidates, "s/op"),
            "solver.candidates_tried": (tried, "count/op"),
            "solver.prune_s": (self.inclusive("solver.prune"), "s/op"),
            "solver.verify_s": (
                self.inclusive("solver.check_final")
                + self.inclusive("connectivity.certificate", SOLVE_SPANS + ("solver.pipeline",)),
                "s/op"),
        }
        metrics = {name: (value * per_op, unit) for name, (value, unit) in out.items()}
        metrics["solver.candidate_yield"] = (feasible / tried if tried else 0.0, "ratio")
        metrics["solver.prune_yield"] = (dropped / trials if trials else 0.0, "ratio")
        metrics["bench.op_s"] = (statistics.fmean(op_seconds), "s")
        metrics["bench.setup_s"] = (statistics.median(setup_seconds), "s")
        metrics["setup.disk_instance_s"] = (
            self.self_time("graph.disk_instance", phase="setup") / setup_reps, "s")
        return metrics

    def trace_document(self) -> dict:
        return {
            "spans_kept": "every span of the first measured operation",
            "span_fields": ["id", "parent", "name", "start_s", "end_s", "units", "raised"],
            "spans": [list(s) for s in self.spans],
            "sums_fields": ["phase", "name", "parent", "calls", "inclusive_s",
                            "self_s", "units", "raised"],
            "sums": [
                [phase, name, parent, *entry]
                for (phase, name, parent), entry in sorted(
                    self.sums.items(), key=lambda kv: tuple(str(x) for x in kv[0]))
            ],
        }
