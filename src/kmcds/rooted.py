"""Minimum-weight augmentation toward root connectivity.

Given a graph with a designated root, a terminal set that must keep k
internally disjoint paths to the root, and a priced pool of optional
nodes, the solvers here pick a pool subset S so that the graph induced by
everything outside the pool plus S satisfies the terminal requirement.

Two backends, named in :data:`BACKENDS`: ``flow-union`` runs one
min-cost flow per terminal (pool nodes priced at their weight,
already-selected or free nodes at zero, each set on the network with
:meth:`~kmcds.flow.SplitFlowNetwork.set_node_cost`) and unions the nodes
the flows traverse; ``exact`` asks the whole pool once, then enumerates
pool subsets in nondecreasing weight order. Each returns its selection
with one witness per terminal, the nodes a k-flow of that terminal uses
inside free and selected nodes, and both hand those witnesses to one
inclusion pruning pass. Each min-cost flow starts with zero-cost paths,
through free, selected and zero-weight pool nodes, before it pays for
any: a terminal that already has k of them buys nothing and runs no
shortest-path search, and one that has j < k runs only k - j.

The flow union also buys the solver's forest bundles: for a virtual edge
uv, :func:`flow_union_witnessed` with the one terminal u and the root at
v buys k internally disjoint u-v paths at minimum weight, a single
terminal's flow being exact. The solver keeps that selection as it is,
with no prune, under either backend. This module's min-cost flow is the
one place where node weights become flow costs.

A solve runs every flow on one :class:`~kmcds.flow.SplitFlowNetwork`: the
caller's, whose open arcs are the edges of ``graph_r`` (a network over a
supergraph with the extra edges closed will do), or one built over
``graph_r``. Every entry point closes the edges from the root to its
closed neighbours itself and runs inside
:meth:`~kmcds.flow.SplitFlowNetwork.masks_kept`, so every call leaves
every mask as it found it, also when it raises. A feasibility check for a
selection closes the pool nodes outside it, so no subgraph is ever
built. The prune keeps one k-path witness per terminal, the nodes its
flow uses, and when it tries to drop a node it re-runs only the
terminals whose witness uses that node: a witness that avoids the node
still holds without it, so every verdict is the one a full check would
give. The witnesses are the prune's only input besides the selection:
it starts from the ones the backend's own flows left and runs no
opening flows.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ._enum import iter_subsets_by_weight
from .errors import InfeasibleError
from .flow import SplitFlowNetwork
from .graph import Graph

_EXACT_POOL_CAP = 20


@dataclass(frozen=True, slots=True)
class RootedProblem:
    """Rooted augmentation input.

    ``graph_r`` already contains the root. ``pool`` nodes are optional and
    priced; every other node is free and fixed. ``terminals`` is the set
    whose root connectivity must reach ``k`` (a subset of the free nodes).
    ``closed_neighbours`` are neighbours of the root in ``graph_r`` whose
    edge to the root does not count: the problem is solved on ``graph_r``
    without those edges, each call closing them on its network for as
    long as it runs, so a caller can share one network between roots
    instead of building a trimmed graph.
    """

    graph_r: Graph
    root: int
    terminals: tuple[int, ...]
    pool: tuple[int, ...]
    k: int
    closed_neighbours: frozenset[int] = frozenset()

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
        closed = frozenset(self.closed_neighbours)
        if not all(g.has_edge(self.root, x) for x in closed):
            raise ValueError("closed neighbours must be neighbours of the root")
        object.__setattr__(self, "closed_neighbours", closed)
        object.__setattr__(self, "terminals", tuple(sorted(ts)))
        object.__setattr__(self, "pool", tuple(sorted(ps)))

    @property
    def free(self) -> frozenset[int]:
        return frozenset(self.graph_r.nodes) - frozenset(self.pool)


@contextmanager
def _posed(problem: RootedProblem, net: SplitFlowNetwork | None) -> Iterator[SplitFlowNetwork]:
    """``net``, or a network over ``graph_r``, with the problem's root edges closed.

    Every mask comes back as it was when the body ends.
    """
    if net is None:
        net = SplitFlowNetwork(problem.graph_r)
    with net.masks_kept():
        for x in problem.closed_neighbours:
            net.set_edge_open(problem.root, x, False)
        yield net


def _open_pool(net: SplitFlowNetwork, problem: RootedProblem, keep: Iterable[int]) -> None:
    """Open the pool nodes in ``keep`` and close the rest of the pool."""
    keep = frozenset(keep)
    for v in problem.pool:
        net.set_node_open(v, v in keep)


def _holds(net: SplitFlowNetwork, problem: RootedProblem, t: int) -> bool:
    """Whether t has k disjoint root paths on the open arcs."""
    return net.max_flow(t, problem.root, problem.k) >= problem.k


def _witness(net: SplitFlowNetwork, problem: RootedProblem, t: int) -> frozenset[int] | None:
    """Nodes carrying k disjoint t-root paths on the open arcs, or None."""
    if not _holds(net, problem, t):
        return None
    return frozenset(net.nodes_carrying_flow())


def find_infeasible_terminal(
    problem: RootedProblem, selected: Iterable[int], net: SplitFlowNetwork | None = None
) -> int | None:
    """First terminal lacking k disjoint root paths in free∪selected."""
    with _posed(problem, net) as net:
        _open_pool(net, problem, selected)
        return next((t for t in problem.terminals if not _holds(net, problem, t)), None)


def _terminal_order(problem: RootedProblem) -> list[int]:
    """Terminals by neighbour weight, heaviest first, closed root edges left out."""
    g = problem.graph_r
    w_root = g.weights[problem.root]
    closed = problem.closed_neighbours

    def key(t: int) -> tuple[int, int]:
        around = sum(g.weights[u] for u in g.adj[t]) - (w_root if t in closed else 0)
        return -around, t

    return sorted(problem.terminals, key=key)


def flow_union_witnessed(
    problem: RootedProblem, net: SplitFlowNetwork | None = None
) -> tuple[frozenset[int], dict[int, frozenset[int]]]:
    """Union of one min-cost path bundle per terminal, with each terminal's witness.

    Terminals go in :func:`_terminal_order`. Each flow is exact for its own
    terminal, so the union costs at most |terminals| times the optimum;
    the reported guarantee stays at the conservative 2|terminals|. Every
    terminal runs one :meth:`~kmcds.flow.SplitFlowNetwork.min_cost_flow`,
    which pushes its zero-cost paths first, so a terminal whose k paths
    already exist through free and selected nodes buys nothing. Each
    witness is the node set of the terminal's own flow, inside free and
    selected nodes, ready to hand to :func:`prune_selection`.
    """
    g = problem.graph_r
    pool = frozenset(problem.pool)
    selected: set[int] = set()
    witnesses: dict[int, frozenset[int]] = {}
    with _posed(problem, net) as net:
        for v in g.nodes:
            net.set_node_cost(v, g.weights[v] if v in pool else 0)
        for t in _terminal_order(problem):
            units, _cost = net.min_cost_flow(t, problem.root, problem.k)
            if units < problem.k:
                raise InfeasibleError(
                    f"terminal {t}: only {units} of {problem.k} disjoint paths to the root"
                )
            witnesses[t] = frozenset(net.nodes_carrying_flow())
            for v in witnesses[t]:
                if v in pool and v not in selected:
                    selected.add(v)
                    net.set_node_cost(v, 0)
    return frozenset(selected), witnesses


def exact_backend(
    problem: RootedProblem, net: SplitFlowNetwork | None = None
) -> tuple[frozenset[int], dict[int, frozenset[int]]]:
    """Cheapest feasible pool subset, by weight-ordered enumeration, with its witnesses.

    The whole pool is asked first: feasibility is monotone, so when it
    fails no subset holds. Otherwise the first subset, by weight, on which
    every terminal holds comes back with each terminal's flow nodes.
    """
    if len(problem.pool) > _EXACT_POOL_CAP:
        raise ValueError(f"exact backend capped at {_EXACT_POOL_CAP} pool nodes")
    weights = problem.graph_r.weights
    with _posed(problem, net) as net:
        bad = find_infeasible_terminal(problem, problem.pool, net)
        if bad is None:
            for _, subset in iter_subsets_by_weight(problem.pool, weights):
                _open_pool(net, problem, subset)
                witnesses: dict[int, frozenset[int]] = {}
                for t in problem.terminals:
                    found = _witness(net, problem, t)
                    if found is None:
                        break
                    witnesses[t] = found
                else:
                    return frozenset(subset), witnesses
    raise InfeasibleError(
        f"terminal {bad}: no pool subset yields {problem.k} disjoint root paths"
    )


def prune_selection(
    problem: RootedProblem,
    selected: frozenset[int],
    net: SplitFlowNetwork | None = None,
    *,
    witnesses: Mapping[int, frozenset[int]],
) -> frozenset[int]:
    """Drop nodes of ``selected``, a feasible pool subset, whose removal keeps feasibility.

    Heaviest first. A single pass suffices for inclusion minimality:
    feasibility is monotone, so a node kept against a larger set stays
    unremovable. ``witnesses`` holds for every terminal a node set inside
    free∪selected carrying k disjoint paths to the root, as both backends
    return one; dropping a node re-runs only the terminals whose witness
    uses it. A verdict only asks whether a k-flow exists without a node,
    so it does not depend on which witness was held.
    """
    weights = problem.graph_r.weights
    current = set(selected)
    witness = dict(witnesses)
    with _posed(problem, net) as net:
        _open_pool(net, problem, current)
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


# each backend's selector, under the name a config gives it
BACKENDS = {"flow-union": flow_union_witnessed, "exact": exact_backend}


def solve_rooted_nodeweight(
    problem: RootedProblem,
    backend: str = "flow-union",
    net: SplitFlowNetwork | None = None,
) -> frozenset[int]:
    """Run a backend, then prune from its witnesses. Node weights price the pool.

    Every flow runs on ``net`` when one is given; its node costs are
    overwritten, its masks kept.
    """
    select = BACKENDS.get(backend)
    if select is None:
        raise ValueError(f"unknown backend {backend!r}")
    with _posed(problem, net) as net:
        selected, witnesses = select(problem, net)
        return prune_selection(problem, selected, net, witnesses=witnesses)
