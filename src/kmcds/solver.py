"""End-to-end minimum-weight (k, m)-cds solvers.

Every variant runs one driver, :func:`_solve`: the precheck, the greedy
m-dominating set T, guess-root's candidate loop when the variant asks for
it, steps 2-5 below otherwise or when no candidate survives, and then
:func:`_build_report` on the one :class:`_Attempt` chosen (the pipeline's
lightest attachment or guess-root's lightest candidate), which runs step 6.

Feasibility for m >= k: a (k, m)-cds exists iff the graph itself is
k-connected, so the precheck rejects everything else with a witness. A
graph that passes has more than k nodes and minimum degree at least k;
every node outside T has m >= k neighbours in T, so |T| >= k and every
superset of T m-dominates. Later stages rely on these facts and test
none of them again.

The pipeline shared by :func:`solve_general` and :func:`solve_unit_disk`:

1. greedy m-dominating set T (never padded, as |T| >= k);
2. virtual zero-weight root attached to k terminals R;
3. rooted augmentation buying S so every terminal keeps k disjoint root
   paths (node-weighted min-cost flows, or exhaustive search under the
   exact backend);
4. inclusion-minimal virtual forest J on R making G[T∪S] k-connected;
5. k disjoint paths bought for each virtual edge uv, in forest order, by
   the flow union of step 3 with one terminal u and the root at v, its
   pool the nodes bought so far left out (no prune, whatever the backend);
6. union, optional inclusion pruning and the certificate on Even's
   schedule, on one network over G[union]; a set the certificate refuses
   raises :class:`InvariantViolationError`.

:func:`solve_unit_disk` is this pipeline under the ``unit-disk`` label: it
requires geometry and adds the cited edge-cost conversion factors to the
report, and computes nothing else differently.

:func:`solve_guess_root` (k in {2, 3}) instead enumerates a real root and
k of its incident edges, reruns the rooted stage with the root's other
edges closed on one flow network shared by every candidate (the rooted
problem is posed over the graph itself and names those closed
neighbours, so no trimmed graph is built), and keeps the best
candidate; the k-in-connected outcome with a degree-k root is already
k-connected, so no forest stage is needed. A candidate whose neighbour
lower bound (see :func:`_neighbour_bound`) cannot beat the best weight so
far is skipped before any flow runs, which never changes the answer.
When no candidate survives, the fallback is the pipeline itself under
the guess-root label.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from .augment import minimal_augmenting_forest
from .connectivity import (
    Certificate,
    ConnectivityViolation,
    VerifyResult,
    build_certificate,
    certify,
    find_k_connectivity_violation,
)
from .domset import greedy_mds
from .errors import InfeasibleError, InvariantViolationError
from .flow import SplitFlowNetwork
from .graph import Graph, Instance, attach_root, degree_stats
from .rooted import (
    BACKENDS,
    RootedProblem,
    flow_union_witnessed,
    solve_rooted_nodeweight,
)

ATTACHMENT_RULES = ("min-weight", "enumerate")


@dataclass(frozen=True, slots=True)
class SolverConfig:
    """Knobs that change solver behavior (all deterministic).

    ``backend`` picks the rooted stage ("flow-union" or "exact") of every
    variant, unit-disk included;
    ``attachment_rule`` picks R ("min-weight" or "enumerate" over all
    C(|T|, k) choices while |T| <= attachment_enum_cap, falling back to
    min-weight above it); ``final_prune`` drops removable non-dominating
    nodes from the finished solution; ``collect_witnesses`` controls
    whether certificates carry explicit path systems.
    """

    backend: str = "flow-union"
    attachment_rule: str = "min-weight"
    final_prune: bool = True
    collect_witnesses: bool = True
    attachment_enum_cap: int = 12

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.attachment_rule not in ATTACHMENT_RULES:
            raise ValueError(f"unknown attachment rule {self.attachment_rule!r}")
        for name in ("final_prune", "collect_witnesses"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, not {getattr(self, name)!r}")
        cap = self.attachment_enum_cap
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0:
            raise ValueError(f"attachment_enum_cap must be a nonnegative int, not {cap!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def precheck(instance: Instance) -> ConnectivityViolation | None:
    """Feasibility test: None when the instance graph is itself k-connected, else a witness."""
    return find_k_connectivity_violation(instance.graph, instance.k)


@dataclass(slots=True)
class SolutionReport:
    """Everything a solve produced, ready for serialization.

    Weights are in scaled integer units (divide by the instance's weight
    denominator for display). ``stage_seconds`` is informational and
    excluded from canonical serialized output so reports stay
    byte-reproducible.
    """

    variant: str
    config: SolverConfig
    n: int
    edge_count: int
    k: int
    m: int
    weight_denominator: int
    dominating: tuple[int, ...]
    connectors: tuple[int, ...]
    pair_connectors: tuple[int, ...]
    attachment: tuple[int, ...]
    forest: tuple[tuple[int, int], ...]
    guess_root: int | None
    pruned: tuple[int, ...]
    solution: tuple[int, ...]
    weights: dict[str, int]
    guarantee: dict[str, object]
    flags: dict[str, object]
    certificate: Certificate
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_weight(self) -> int:
        return self.weights["total"]


def verify_solution(
    instance: Instance, members: Iterable[int], with_witnesses: bool = True
) -> VerifyResult:
    """Check a claimed solution from scratch, in one kernel pass (no solver state involved)."""
    return certify(instance.graph, members, instance.k, instance.m, with_witnesses)


def _require_feasible(instance: Instance) -> None:
    v = precheck(instance)
    if v is None:
        return
    if v.too_small:
        raise InfeasibleError(
            f"no (k, m)-cds: the graph has only {instance.n} nodes, need more than {instance.k}"
        )
    raise InfeasibleError(
        f"no (k, m)-cds: the graph is not {instance.k}-connected; {v.describe('nodes')}"
    )


def _cheapest_outside(g: Graph, taken: set[int] | frozenset[int], count: int) -> list[int]:
    """The ``count`` lightest nodes outside ``taken``, ties to the lower id."""
    if count <= 0:
        return []
    spare = sorted((v for v in g.nodes if v not in taken), key=lambda v: (g.weights[v], v))
    return spare[:count]


def _enum_truncated(terminals: frozenset[int], config: SolverConfig) -> bool:
    """Whether "enumerate" falls back to min-weight because |T| exceeds the cap."""
    return config.attachment_rule == "enumerate" and len(terminals) > config.attachment_enum_cap


def _attachment_candidates(
    terminals: frozenset[int], instance: Instance, config: SolverConfig
) -> list[tuple[int, ...]]:
    if config.attachment_rule == "enumerate" and not _enum_truncated(terminals, config):
        return [tuple(c) for c in combinations(sorted(terminals), instance.k)]
    g = instance.graph
    return [tuple(sorted(sorted(terminals, key=lambda v: (g.weights[v], v))[: instance.k]))]


def _cited_targets(variant: str) -> dict[str, str]:
    targets = {
        "rooted_node_weighted": (
            "an O(k^2 log n) factor is known for the rooted node-weighted "
            "subproblem; this package uses the 2|T| flow union instead"
        ),
        "pair_paths": (
            "the per-pair bundle is bought at most a factor 2 above the "
            "cheapest purchase (the flow may in fact be exact; only 2 is claimed)"
        ),
    }
    if variant == "unit-disk":
        targets["rooted_edge_costs"] = (
            "O(k log k) edge-cost factors are known for the rooted subproblem "
            "(2 when k=2, 20/3 when k=3); this package uses the 2|T| flow union"
        )
        targets["edge_cost_conversion"] = (
            "pricing edge uv at w_u + w_v keeps any subgraph's edge cost "
            "between min_degree and max_degree times its node weight; a "
            "k-connected unit-disk graph always has a k-connected spanning "
            "subgraph of maximum degree 5 (k=2) or 5k, so the conversion "
            "costs a factor of at most 5/2 when k=2 and 5 when k>=3"
        )
    return targets


@dataclass(slots=True)
class _Attempt:
    """One route's unpruned stage sets, as :func:`_build_report` takes them.

    A guess-root candidate names its root and leaves the forest stages empty.
    """

    attachment: tuple[int, ...]
    connectors: frozenset[int]
    weight: int
    guess_root: int | None = None
    grown: tuple[int, ...] = ()
    forest: tuple[tuple[int, int], ...] = ()
    pair_connectors: frozenset[int] = frozenset()


def _run_attempt(
    instance: Instance,
    terminals: frozenset[int],
    attachment: tuple[int, ...],
    config: SolverConfig,
) -> _Attempt:
    g = instance.graph
    k = instance.k
    g_r, root = attach_root(g, attachment, k)
    pool = tuple(v for v in g.nodes if v not in terminals)
    problem = RootedProblem(
        graph_r=g_r, root=root, terminals=tuple(sorted(terminals)), pool=pool, k=k
    )
    connectors = solve_rooted_nodeweight(problem, config.backend)

    # no graph on <= k nodes is k-connected; grow the selection with the
    # cheapest spare nodes (supersets keep every property needed later)
    union = set(terminals) | connectors
    grown = _cheapest_outside(g, union, k + 1 - len(union))
    union.update(grown)
    connectors |= frozenset(grown)

    core = g.induced(union)
    forest = minimal_augmenting_forest(core, attachment, k)
    free = set(union)
    pair_nodes: set[int] = set()
    for u, v in forest:
        outside = tuple(x for x in g.nodes if x not in free)
        pair = RootedProblem(graph_r=g, root=v, terminals=(u,), pool=outside, k=k)
        bought, _witnesses = flow_union_witnessed(pair)
        pair_nodes |= bought
        free |= bought
    weight = g.total_weight(union | pair_nodes)
    return _Attempt(
        attachment, connectors, weight,
        grown=tuple(grown), forest=forest, pair_connectors=frozenset(pair_nodes),
    )


def _final_prune(
    instance: Instance, members: set[int], protected: frozenset[int], net: SplitFlowNetwork
) -> list[int]:
    """Drop removable nodes outside ``protected``, heaviest first, in one pass.

    ``protected`` is the m-dominating set T and every trial keeps it, so
    every trial m-dominates (a node outside the trial lies outside T and
    has m neighbours in T): only k-connectivity is tested, once per node.
    Adding a node with k neighbours to a k-connected graph keeps it
    k-connected (the expansion lemma), so with m >= k, G[Y] is k-connected
    whenever G[X] is, for T ⊆ X ⊆ Y: a node kept against a set is kept
    against every smaller one, so restarting after a drop changes nothing.
    Every trial runs the kernel on ``net``, a network over G[members].
    """
    g = instance.graph
    dropped: list[int] = []
    for v in sorted(members - protected, key=lambda v: (-g.weights[v], v)):
        if find_k_connectivity_violation(g, instance.k, members=members - {v}, net=net) is None:
            members.discard(v)
            dropped.append(v)
    return dropped


@contextmanager
def _timed(times: dict[str, float], stage: str) -> Iterator[None]:
    """Record the wall time of the ``with`` body as ``times[stage]``."""
    t0 = time.perf_counter()
    yield
    times[stage] = time.perf_counter() - t0


def _build_report(
    instance: Instance,
    config: SolverConfig,
    variant: str,
    terminals: frozenset[int],
    best: _Attempt,
    times: dict[str, float],
) -> SolutionReport:
    """Prune, certify and report the union of ``terminals`` and ``best``'s stage sets.

    One network over G[union] serves the prune's trials and then the
    certificate. The prune keeps every terminal, and the nodes it drops
    leave the stage sets they came from. The certificate is the final
    check: a set the builder refuses is a solver bug, raised as
    :class:`InvariantViolationError`. Whether ``best`` names a guess root
    decides what differs between the routes: the attachment nodes a
    guessed root brings in, the pair-stage guarantee entries, and the
    fallback and enumeration-cap flags (a guess-root report with no guess
    root is the general pipeline's).
    ``times`` gains the prune and verify stages.
    """
    g = instance.graph
    k, m = instance.k, instance.m
    if best.guess_root is None:
        attachment_extra: frozenset[int] = frozenset()
        stage_bounds = {
            "pair_stage_expr": "2(k-1)",
            "pair_stage_value": 2 * (k - 1),
            "total_bound_expr": "ln(max_degree + m) + 1 + backend_factor + 2(k-1)",
        }
    else:
        attachment_extra = (frozenset(best.attachment) | {best.guess_root}) - terminals
        stage_bounds = {
            "pair_stage_expr": "0 (no virtual edges: a degree-k root in a "
            "k-in-connected graph already yields k-connectivity for k in {2, 3})",
            "pair_stage_value": 0,
            "total_bound_expr": "candidate enumeration keeps the lightest feasible outcome",
        }
    members = set(terminals) | best.connectors | best.pair_connectors | attachment_extra

    pruned: list[int] = []
    with _timed(times, "prune"):
        net = SplitFlowNetwork(g.induced(members))
        if config.final_prune:
            pruned = _final_prune(instance, members, terminals, net)
    with _timed(times, "verify"):
        try:
            certificate = build_certificate(g, members, k, m, config.collect_witnesses, net=net)
        except InfeasibleError as exc:
            raise InvariantViolationError(f"final set is not a (k, m)-cds: {exc}") from None

    dropped = set(pruned)
    connectors = best.connectors - dropped
    pair_connectors = best.pair_connectors - dropped
    attachment_extra -= dropped
    weights = {
        "dominating": g.total_weight(terminals),
        "connectors": g.total_weight(connectors),
        "pair_connectors": g.total_weight(pair_connectors),
        "attachment_extra": g.total_weight(attachment_extra),
        "total": g.total_weight(members),
    }
    _, max_deg = degree_stats(g)
    if config.backend == "exact":
        factor_expr, factor_value = "1", 1
    else:
        # the rooted problem's terminals: T, less a guessed root
        factor_expr, factor_value = "2|T|", 2 * len(terminals - {best.guess_root})
    guarantee = {
        "backend": config.backend,
        "backend_factor_expr": factor_expr,
        "backend_factor_value": factor_value,
        "dominating_bound_expr": "ln(max_degree + m) + 1",
        "dominating_bound_args": {"max_degree": max_deg, "m": m},
        **stage_bounds,
        "cited_targets": _cited_targets(variant),
    }
    flags: dict[str, object] = {
        # schema 2 keeps the key; T never needs padding under m >= k
        "dominating_padding": [],
        "grown_for_min_size": list(best.grown),
        "attachment_enum_truncated": best.guess_root is None
        and _enum_truncated(terminals, config),
        "fallback_to_general": variant == "guess-root" and best.guess_root is None,
    }
    return SolutionReport(
        variant=variant,
        config=config,
        n=g.n,
        edge_count=len(g.edges),
        k=k,
        m=m,
        weight_denominator=instance.weight_denominator,
        dominating=tuple(sorted(terminals)),
        connectors=tuple(sorted(connectors)),
        pair_connectors=tuple(sorted(pair_connectors)),
        attachment=best.attachment,
        forest=best.forest,
        guess_root=best.guess_root,
        pruned=tuple(pruned),
        solution=tuple(sorted(members)),
        weights=weights,
        guarantee=guarantee,
        flags=flags,
        certificate=certificate,
        stage_seconds=times,
    )


def _solve(instance: Instance, config: SolverConfig, variant: str) -> SolutionReport:
    """The one driver: precheck, T, candidates or attachments, report."""
    times: dict[str, float] = {}
    t_start = time.perf_counter()
    with _timed(times, "precheck"):
        _require_feasible(instance)
    with _timed(times, "dominating"):
        terminals = greedy_mds(instance)
    best: _Attempt | None = None
    if variant == "guess-root":
        with _timed(times, "candidates"):
            best = _best_guess(instance, terminals, config)
    if best is None:
        with _timed(times, "augment"):
            candidates = _attachment_candidates(terminals, instance, config)
            attempts = (_run_attempt(instance, terminals, att, config) for att in candidates)
            best = min(attempts, key=lambda attempt: attempt.weight)
    report = _build_report(instance, config, variant, terminals, best, times)
    times["total"] = time.perf_counter() - t_start
    return report


def solve_general(instance: Instance, config: SolverConfig | None = None) -> SolutionReport:
    """Approximate solver for arbitrary node-weighted graphs."""
    return _solve(instance, config or SolverConfig(), "general")


def solve_unit_disk(instance: Instance, config: SolverConfig | None = None) -> SolutionReport:
    """The general pipeline on a disk graph, reported under the unit-disk label.

    It solves exactly as :func:`solve_general` does, ``config.backend``
    included. The report adds the cited edge-cost targets and the factor
    (5/2 when k = 2, 5 when k >= 3) that converting node weights to edge
    costs loses on a disk graph; no edge-cost algorithm runs.
    """
    if not instance.is_geometric:
        raise ValueError("unit-disk solver needs coordinates and a radius")
    return _solve(instance, config or SolverConfig(), "unit-disk")


def _neighbour_bound(
    g: Graph,
    r: int,
    picked: tuple[int, ...],
    forced: frozenset[int],
    terminals: frozenset[int],
    k: int,
) -> int | None:
    """Lower bound on the connector weight of candidate (r, picked).

    Each of a terminal t's k disjoint paths to r is the kept edge t-r
    (only when t is picked) or starts at its own neighbour x != r, and an x
    outside ``forced`` must be bought. So t needs
    k - [t in picked] - |N(t) ∩ forced - {r}| pool neighbours, at least
    its cheapest ones, and the dearest terminal bounds the connectors.
    None means some terminal has too few pool neighbours: no connector
    set is feasible.
    """
    bound = 0
    for t in terminals:
        if t == r:
            continue
        pool_weights = sorted(g.weights[x] for x in g.adj[t] if x not in forced)
        need = k - (t in picked) - sum(1 for x in g.adj[t] if x in forced and x != r)
        if need > len(pool_weights):
            return None
        bound = max(bound, sum(pool_weights[:need]) if need > 0 else 0)
    return bound


def _best_guess(
    instance: Instance, terminals: frozenset[int], config: SolverConfig
) -> _Attempt | None:
    """The candidate loop of :func:`solve_guess_root`: its lightest candidate, or None."""
    g = instance.graph
    k = instance.k
    w_terminals = g.total_weight(terminals)
    net = SplitFlowNetwork(g)
    best: _Attempt | None = None
    for r in sorted(g.nodes, key=lambda v: (g.weights[v], v)):
        lower = w_terminals + (0 if r in terminals else g.weights[r])
        if best is not None and lower >= best.weight:
            continue
        for picked in combinations(g.adj[r], k):
            forced = frozenset(picked) | {r} | terminals
            bound = _neighbour_bound(g, r, picked, forced, terminals, k)
            if bound is None or (
                best is not None and g.total_weight(forced) + bound >= best.weight
            ):
                continue
            problem = RootedProblem(
                graph_r=g,
                root=r,
                terminals=tuple(sorted(terminals - {r})),
                pool=tuple(v for v in g.nodes if v not in forced),
                k=k,
                closed_neighbours=frozenset(x for x in g.adj[r] if x not in picked),
            )
            try:
                connectors = solve_rooted_nodeweight(problem, config.backend, net)
            except InfeasibleError:
                continue
            weight = g.total_weight(forced | connectors)
            if best is None or weight < best.weight:
                best = _Attempt(picked, connectors, weight, guess_root=r)
    return best


def solve_guess_root(instance: Instance, config: SolverConfig | None = None) -> SolutionReport:
    """Root-guessing solver for k in {2, 3}.

    Tries every node r and every k-subset of its incident edges, closes r's
    other edges, reruns the rooted stage with the chosen neighbors forced
    into the solution, and returns the lightest feasible candidate (first
    found wins ties). A candidate is skipped, without a flow, when the
    weight it forces plus its neighbour lower bound (:func:`_neighbour_bound`)
    reaches the best weight found so far, or when the bound is infinite; a
    skipped candidate could not have won. Falls back to the general
    pipeline, flagged, if no candidate is feasible.
    """
    if instance.k not in (2, 3):
        raise ValueError("root guessing applies to k = 2 or 3 only")
    return _solve(instance, config or SolverConfig(), "guess-root")


# the solve function of each variant, under the name its reports carry
SOLVERS = {
    "general": solve_general,
    "unit-disk": solve_unit_disk,
    "guess-root": solve_guess_root,
}
