"""Minimum-weight augmentation toward root connectivity.

Given a graph with a designated root, a terminal set that must keep k
internally disjoint paths to the root, and a priced pool of optional
nodes, the solvers here pick a pool subset S so that the graph induced by
everything outside the pool plus S satisfies the terminal requirement.

Two backends: ``flow-union`` runs one min-cost flow per terminal (pool
nodes priced at their weight, already-selected or free nodes at zero) and
unions the nodes the flows traverse; ``exact`` enumerates pool subsets in
nondecreasing weight order. Both finish with an inclusion pruning pass.

A solve runs every flow on one :class:`~kmcds.flow.SplitFlowNetwork`, the
caller's or one built over ``graph_r``. Its open arcs must be exactly the
edges of ``graph_r``; a caller may pass a network over a supergraph with
the extra edges closed. A feasibility check for a selection closes the
pool nodes outside it and reopens them afterwards, so no subgraph is ever
built. The prune keeps one k-path witness per terminal, the nodes its
flow uses, and when it tries to drop a node it re-runs only the terminals
whose witness uses that node: a witness that avoids the node still holds
without it, so every verdict is the one a full check would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ._enum import iter_subsets_by_weight
from .errors import InfeasibleError
from .flow import SplitFlowNetwork
from .graph import Graph

_EXACT_POOL_CAP = 20

BACKENDS = ("flow-union", "exact")


@dataclass(frozen=True, slots=True)
class RootedProblem:
    """Rooted augmentation input.

    ``graph_r`` already contains the root. ``pool`` nodes are optional and
    priced; every other node is free and fixed. ``terminals`` is the set
    whose root connectivity must reach ``k`` (a subset of the free nodes).
    """

    graph_r: Graph
    root: int
    terminals: tuple[int, ...]
    pool: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        g = self.graph_r
        if not g.has_node(self.root):
            raise ValueError("root must be in the graph")
        ts = set(self.terminals)
        ps = set(self.pool)
        if self.root in ts or self.root in ps:
            raise ValueError("root can be neither terminal nor pool")
        if ts & ps:
            raise ValueError("terminals cannot be pool nodes")
        for v in ts | ps:
            if not g.has_node(v):
                raise ValueError(f"node {v} not in graph")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        object.__setattr__(self, "terminals", tuple(sorted(ts)))
        object.__setattr__(self, "pool", tuple(sorted(ps)))

    @property
    def free(self) -> frozenset[int]:
        return frozenset(self.graph_r.nodes) - frozenset(self.pool)


@dataclass(frozen=True, slots=True)
class GuaranteeInfo:
    """Proven multiplicative bound of the backend used for one run."""

    backend: str
    factor_expr: str
    factor_value: int


def _network(problem: RootedProblem, net: SplitFlowNetwork | None) -> SplitFlowNetwork:
    return SplitFlowNetwork(problem.graph_r) if net is None else net


def _open_pool(net: SplitFlowNetwork, problem: RootedProblem, keep: Iterable[int]) -> None:
    """Open the pool nodes in ``keep`` and close the rest of the pool."""
    keep = frozenset(keep)
    for v in problem.pool:
        net.set_node_open(v, v in keep)


def _witness(net: SplitFlowNetwork, problem: RootedProblem, t: int) -> frozenset[int] | None:
    """Nodes carrying k disjoint t-root paths on the open arcs, or None."""
    net.reset()
    if net.max_flow(t, problem.root, problem.k) < problem.k:
        return None
    return frozenset(net.nodes_carrying_flow())


def find_infeasible_terminal(
    problem: RootedProblem, selected: Iterable[int], net: SplitFlowNetwork | None = None
) -> int | None:
    """First terminal lacking k disjoint root paths in free∪selected."""
    net = _network(problem, net)
    _open_pool(net, problem, selected)
    try:
        for t in problem.terminals:
            net.reset()
            if net.max_flow(t, problem.root, problem.k) < problem.k:
                return t
        return None
    finally:
        _open_pool(net, problem, problem.pool)


def selection_is_feasible(
    problem: RootedProblem, selected: Iterable[int], net: SplitFlowNetwork | None = None
) -> bool:
    return find_infeasible_terminal(problem, selected, net) is None


def _terminal_order(problem: RootedProblem) -> list[int]:
    g = problem.graph_r
    return sorted(
        problem.terminals,
        key=lambda t: (-sum(g.weights[u] for u in g.adj[t]), t),
    )


def flow_union_backend(
    problem: RootedProblem, net: SplitFlowNetwork | None = None
) -> frozenset[int]:
    """Union of one min-cost path bundle per terminal.

    Each flow is exact for its own terminal, so the union costs at most
    |terminals| times the optimum; the reported guarantee stays at the
    conservative 2|terminals|.
    """
    g = problem.graph_r
    pool = frozenset(problem.pool)
    net = _network(problem, net)
    for v in g.nodes:
        net.set_node_cost(v, g.weights[v] if v in pool else 0)
    selected: set[int] = set()
    for t in _terminal_order(problem):
        net.reset()
        units, _cost = net.min_cost_flow(t, problem.root, problem.k)
        if units < problem.k:
            raise InfeasibleError(
                f"terminal {t}: only {units} of {problem.k} disjoint paths to the root"
            )
        for v in net.nodes_carrying_flow():
            if v in pool and v not in selected:
                selected.add(v)
                net.set_node_cost(v, 0)
    return frozenset(selected)


def exact_backend(
    problem: RootedProblem, net: SplitFlowNetwork | None = None
) -> frozenset[int]:
    """Cheapest feasible pool subset, by weight-ordered enumeration."""
    if len(problem.pool) > _EXACT_POOL_CAP:
        raise ValueError(f"exact backend capped at {_EXACT_POOL_CAP} pool nodes")
    net = _network(problem, net)
    weights = problem.graph_r.weights
    for _, subset in iter_subsets_by_weight(problem.pool, weights):
        if selection_is_feasible(problem, subset, net):
            return frozenset(subset)
    bad = find_infeasible_terminal(problem, problem.pool, net)
    raise InfeasibleError(
        f"terminal {bad}: no pool subset yields {problem.k} disjoint root paths"
    )


def prune_selection(
    problem: RootedProblem, selected: frozenset[int], net: SplitFlowNetwork | None = None
) -> frozenset[int]:
    """Drop nodes of ``selected``, a pool subset, whose removal keeps feasibility.

    Heaviest first. A single pass suffices for inclusion minimality:
    feasibility is monotone, so a node kept against a larger set stays
    unremovable. An infeasible ``selected`` comes back whole.
    """
    net = _network(problem, net)
    weights = problem.graph_r.weights
    current = set(selected)
    _open_pool(net, problem, current)
    try:
        witness = {}
        for t in problem.terminals:
            witness[t] = _witness(net, problem, t)
            if witness[t] is None:
                return frozenset(selected)
        for v in sorted(selected, key=lambda v: (-weights[v], v)):
            net.set_node_open(v, False)
            for t in problem.terminals:
                if v in witness[t]:
                    found = _witness(net, problem, t)
                    if found is None:
                        net.set_node_open(v, True)
                        break
                    # paths that avoid v hold whether or not v comes back
                    witness[t] = found
            else:
                current.discard(v)
        return frozenset(current)
    finally:
        _open_pool(net, problem, problem.pool)


def solve_rooted_nodeweight(
    problem: RootedProblem,
    backend: str = "flow-union",
    net: SplitFlowNetwork | None = None,
) -> tuple[frozenset[int], GuaranteeInfo]:
    """Dispatch to a backend, then prune. Node weights price the pool.

    Every flow runs on ``net`` when one is given (see the module notes on
    what it must hold); its node costs are overwritten, its masks kept.
    """
    if backend == "flow-union":
        info = GuaranteeInfo("flow-union", "2|T|", 2 * len(problem.terminals))
        select = flow_union_backend
    elif backend == "exact":
        info = GuaranteeInfo("exact", "1", 1)
        select = exact_backend
    else:
        raise ValueError(f"unknown backend {backend!r}")
    net = _network(problem, net)
    return prune_selection(problem, select(problem, net), net), info

