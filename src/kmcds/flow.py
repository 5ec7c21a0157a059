"""Node-split flow network for internally disjoint path computations.

Every graph node v becomes an arc v_in -> v_out of capacity one, every
undirected edge uv becomes the two arcs u_out -> v_in and v_out -> u_in of
capacity one, so an integral s-t flow of value f decomposes into f paths of
the underlying graph that share no interior node. Costs sit on the node
arcs and are set one node at a time with
:meth:`SplitFlowNetwork.set_node_cost` (0 until set); edge arcs cost
nothing.

Queries run from s_out to t_in. Augmenting paths are simple, so they never
traverse the internal arc of s or t; the endpoints are effectively
uncapacitated without special casing. Flow values never exceed the small
connectivity targets used in this package, which keeps plain augmenting
search exact and fast. All tie-breaking is fixed by arc construction order
(nodes ascending, then edges in sorted order), making results deterministic.

The layout fixes every index, so none is stored twice. The node in slot i
has in-node 2i and out-node 2i + 1. Arcs are appended in pairs by
:meth:`SplitFlowNetwork._add_arc`, an arc at an even index and its reverse
right after it, so arc a's reverse is a ^ 1 and its tail is the head of
a ^ 1. The node arcs come first, so node v's arc is ``2 * slot[v]``, the
index of its in-node. Each edge's two arcs follow, the second at the index
of the first plus 2, and ``_edge_arcs`` keeps the first.

One extra slot, after the graph nodes, is the super-sink
:attr:`SplitFlowNetwork.SINK`. :meth:`SplitFlowNetwork.join_sink` opens a
node's arc into it, so a flow into SINK may end at a growing node set,
and :meth:`SplitFlowNetwork.join_edge` an edge; both append their arcs on
the first join. At the start of every flow nothing leaves SINK's in-node,
so flows between graph nodes find the paths they would find without SINK.

Arcs can be closed and opened again: :meth:`SplitFlowNetwork.set_node_open`
sets a node's internal arc, :meth:`SplitFlowNetwork.set_edge_open` an
edge's two arcs, to capacity one or zero. A closed node is as good as
deleted for flows between other nodes and a closed edge as good as absent,
so one network serves every induced or edge-deleted subgraph of its graph.
Masks are written to the initial capacities, and every flow starts from
them: it resets the residuals itself, so it never continues the one
before it. Closed arcs keep their place in the arc order and every
search skips them, so a masked network finds the same paths as a
network built on the subgraph. The readers read the last flow, between
the ends it recorded, and compare residuals with initial capacities, so
a closed arc never reads as carrying flow or as cut. A caller that
changes masks for a while runs inside
:meth:`SplitFlowNetwork.masks_kept`, which gives every arc present on
entry its capacity back and closes every arc joined since, also when the
body raises.

A min-cost flow first pushes breadth-first paths over zero-cost arcs
alone: each priced node arc sits at residual 0 for that phase and then
gets its mask capacity back, so the flow so far stays. Successive
shortest paths go on from there (Ahuja, Magnanti & Orlin 1993, ch. 9).
:meth:`SplitFlowNetwork.set_node_cost` refuses a negative cost, so no
flow costs less than 0 and the zero-cost flow is a cheapest flow of its
value. A cheapest flow has no negative residual cycle, and a shortest
augmenting path keeps the flow cheapest for its new value, so no
residual cycle is ever negative and every shortest-path search ends.

Both searches scan only arcs that can be live. An in-node's out-arcs are
its node arc, first, and then the reverses of the edge arcs into it, each
with residual equal to the flow on its edge. Every flow here is conserved
(Ahuja, Magnanti & Orlin 1993, ch. 6): the flow into a graph node's
in-node leaves through its node arc, except at the flow's own sink. So
when a popped in-node other than the sink's carries no flow on its node
arc, every later arc has residual 0, and the search relaxes the node arc
alone. It reaches and relaxes the same nodes, in the same order and with
the same parents, as a scan of every arc, so the paths, cuts and costs
are those. SINK's in-node has no node arc and always gets the whole scan.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from itertools import compress
from operator import lt
from typing import Iterator

from .graph import Graph

_INF = 1 << 60


class SplitFlowNetwork:
    SINK = -1  # id of the super-sink; graph node ids are nonnegative

    __slots__ = (
        "slot", "ids", "size",
        "_to", "_cost", "_cap0", "_res", "_out", "_edge_arcs", "_sink_arcs",
        "_seen", "_token", "_parent", "_ends",
    )

    def __init__(self, graph: Graph) -> None:
        self.ids = graph.nodes
        self.slot = {v: i for i, v in enumerate(self.ids)}
        self.slot[self.SINK] = len(self.ids)
        self.size = 2 * len(self.ids) + 2
        self._to: list[int] = []
        self._cost: list[int] = []
        self._cap0: list[int] = []
        self._res: list[int] = []
        self._out: list[list[int]] = [[] for _ in range(self.size)]
        for s in range(len(self.ids)):
            self._add_arc(2 * s, 2 * s + 1)
        self._edge_arcs: dict[tuple[int, int], int] = {}
        for u, v in graph.edges:
            su, sv = self.slot[u], self.slot[v]
            self._edge_arcs[(u, v)] = self._add_arc(2 * su + 1, 2 * sv)
            self._add_arc(2 * sv + 1, 2 * su)
        self._sink_arcs: dict[int, int] = {}
        self._seen = [0] * self.size
        self._token = 0
        self._parent = [0] * self.size
        self._ends: tuple[int, int] | None = None

    def _add_arc(self, a: int, b: int) -> int:
        """Append the arc a -> b, of capacity one and cost 0, and its reverse; return its index."""
        idx = len(self._to)
        self._to += (b, a)
        self._cost += (0, 0)
        self._cap0 += (1, 0)
        self._res += (1, 0)
        self._out[a].append(idx)
        self._out[b].append(idx + 1)
        return idx

    def reset(self) -> None:
        """Give every arc its initial capacity back; every flow starts with this."""
        self._res = list(self._cap0)

    def join_sink(self, v: int) -> None:
        """Open the arc v_out -> SINK_in, of capacity one, in the initial capacities.

        The arc is added on v's first join and reopened on a later one.
        ``SINK`` may be the sink of :meth:`max_flow`, nothing else; a flow
        between graph nodes starts with nothing leaving SINK_in, so it can
        enter SINK_in but never leave it.
        """
        if v not in self._sink_arcs:
            self._sink_arcs[v] = self._add_arc(2 * self.slot[v] + 1, 2 * self.slot[self.SINK])
        self._cap0[self._sink_arcs[v]] = 1

    def join_edge(self, u: int, v: int) -> None:
        """Open edge uv's two arcs in the initial capacities, appending them on uv's first join."""
        e = (u, v) if u < v else (v, u)
        if e not in self._edge_arcs:
            su, sv = self.slot[e[0]], self.slot[e[1]]
            self._edge_arcs[e] = self._add_arc(2 * su + 1, 2 * sv)
            self._add_arc(2 * sv + 1, 2 * su)
        self.set_edge_open(u, v, True)

    @contextmanager
    def masks_kept(self) -> Iterator[None]:
        """On exit, also on a raise, restore the arcs present on entry and close the rest."""
        saved = list(self._cap0)
        try:
            yield
        finally:
            self._cap0[:] = saved + [0] * (len(self._cap0) - len(saved))

    def set_node_open(self, v: int, is_open: bool) -> None:
        """Open or close v's internal arc; effective from the next flow."""
        self._cap0[2 * self.slot[v]] = int(is_open)

    def set_edge_open(self, u: int, v: int, is_open: bool) -> None:
        """Open or close both arcs of edge uv; effective from the next flow."""
        a = self._edge_arcs[(u, v) if u < v else (v, u)]
        self._cap0[a] = self._cap0[a + 2] = int(is_open)

    def set_node_cost(self, v: int, c: int) -> None:
        """Price v's internal arc at ``c`` >= 0, the one way a node gets a cost."""
        if c < 0:
            raise ValueError(f"node cost {c} is negative")
        a = 2 * self.slot[v]
        self._cost[a] = c
        self._cost[a + 1] = -c

    def _apply_path(self, t_in: int, s_out: int) -> None:
        res, to = self._res, self._to
        x = t_in
        while x != s_out:
            a = self._parent[x]
            res[a] -= 1
            res[a ^ 1] += 1
            x = to[a ^ 1]

    def _augment_bfs(self, s_out: int, t_in: int) -> bool:
        self._token += 1
        token = self._token
        seen, parent, res, to, out = self._seen, self._parent, self._res, self._to, self._out
        n2 = self.size - 2  # SINK's in-node; graph nodes' in-nodes lie below it
        seen[s_out] = token
        q = [s_out]
        for x in q:  # FIFO: the loop reads what it appends
            if not x & 1 and x < n2 and not res[x + 1]:
                # no flow through x, so its node arc is its one live arc;
                # t_in needs no guard, as the search returns on reaching it
                if res[x] and seen[x + 1] != token:
                    seen[x + 1] = token
                    parent[x + 1] = x
                    q.append(x + 1)
                continue
            for a in out[x]:
                if res[a] > 0:
                    y = to[a]
                    if seen[y] != token:
                        seen[y] = token
                        parent[y] = a
                        if y == t_in:
                            self._apply_path(t_in, s_out)
                            return True
                        q.append(y)
        return False

    def _augment_cheapest(self, s_out: int, t_in: int) -> int | None:
        # Bellman-Ford over residual arcs: reverse arcs may cost less than
        # 0, but the flow stays a cheapest one of its value, so no residual
        # cycle is negative and the queue empties
        dist = [_INF] * self.size
        dist[s_out] = 0
        parent, res, to, cost, out = self._parent, self._res, self._to, self._cost, self._out
        inq = bytearray(self.size)
        inq[s_out] = 1
        n2 = self.size - 2  # SINK's in-node
        q = deque([s_out])
        while q:
            x = q.popleft()
            inq[x] = 0
            dx = dist[x]
            # t_in is popped here, with flow in but none through its node
            # arc: conservation fails at the sink, so its scan stays whole
            if not x & 1 and x < n2 and x != t_in and not res[x + 1]:
                if res[x]:
                    nd = dx + cost[x]
                    if nd < dist[x + 1]:
                        dist[x + 1] = nd
                        parent[x + 1] = x
                        if not inq[x + 1]:
                            inq[x + 1] = 1
                            q.append(x + 1)
                continue
            for a in out[x]:
                if res[a] > 0:
                    y = to[a]
                    nd = dx + cost[a]
                    if nd < dist[y]:
                        dist[y] = nd
                        parent[y] = a
                        if not inq[y]:
                            inq[y] = 1
                            q.append(y)
        if dist[t_in] >= _INF:
            return None
        self._apply_path(t_in, s_out)
        return dist[t_in]

    def max_flow(self, s: int, t: int, cap: int) -> int:
        """Units of s-t flow pushed from the masks, stopping early at ``cap``."""
        if s == t:
            raise ValueError("source equals sink")
        self.reset()
        self._ends = (s, t)
        s_out = 2 * self.slot[s] + 1
        t_in = 2 * self.slot[t]
        value = 0
        while value < cap and self._augment_bfs(s_out, t_in):
            value += 1
        return value

    def min_cost_flow(self, s: int, t: int, units: int) -> tuple[int, int]:
        """(units carried, total cost) of a cheapest s-t flow of ``units``, from the masks.

        Breadth-first paths over zero-cost arcs come first, each priced
        node arc held at residual 0 until they run out; then every
        priced arc gets its mask capacity back and cheapest paths go on
        from that flow, which costs 0 and is therefore a cheapest one of
        its value (the module docstring gives the argument).
        """
        if s == t:
            raise ValueError("source equals sink")
        self.reset()
        self._ends = (s, t)
        s_out = 2 * self.slot[s] + 1
        t_in = 2 * self.slot[t]
        res, n2 = self._res, self.size - 2  # node v's arc is 2 * slot[v]
        priced = list(compress(range(0, n2, 2), self._cost[0:n2:2]))
        for a in priced:
            res[a] = 0
        value = total = 0
        while value < units and self._augment_bfs(s_out, t_in):
            value += 1
        for a in priced:
            res[a] = self._cap0[a]
        while value < units:
            got = self._augment_cheapest(s_out, t_in)
            if got is None:
                break
            total += got
            value += 1
        return value, total

    def nodes_carrying_flow(self) -> list[int]:
        """Node ids whose internal arc is used by the last flow."""
        n2 = self.size - 2  # node v's arc is 2 * slot[v]; the node arcs come first
        return list(compress(self.ids, map(lt, self._res[0:n2:2], self._cap0[0:n2:2])))

    def _flow_arc(self, x: int) -> int | None:
        """The first forward arc out of x that carries flow, or None."""
        res, cap0 = self._res, self._cap0
        for a in self._out[x]:
            if a % 2 == 0 and res[a] < cap0[a]:
                return a
        return None

    def extract_paths(self) -> list[tuple[int, ...]]:
        """Decompose the last flow into node paths from its source (consumes it).

        Each path ends at the flow's sink, or at its last graph node when
        the sink is ``SINK``, so every path is a sequence of graph nodes.
        An in-node's one forward arc is its internal arc, so a path steps
        from each in-node it enters straight to the matching out-node.
        """
        s, t = self._ends
        res, to = self._res, self._to
        s_out = 2 * self.slot[s] + 1
        t_in = 2 * self.slot[t]
        paths = []
        while self._flow_arc(s_out) is not None:
            nodes = [s]
            x = s_out
            while x != t_in:
                a = self._flow_arc(x)
                if a is None:
                    raise RuntimeError("flow decomposition lost conservation")
                res[a] += 1
                res[a ^ 1] -= 1
                x = to[a]
                if x % 2 == 0 and x < self.size - 2:  # an in-node, not SINK's
                    nodes.append(self.ids[x // 2])
            paths.append(tuple(nodes))
        return paths

    def sink_side(self) -> list[int]:
        """Graph nodes, ascending, whose in-node still reaches the last flow's sink t.

        After a max-flow into ``t`` that fell short of its cap, these are
        the nodes on the sink side of a minimum cut, none of them in the
        cut. For ``t = SINK`` joined to v_1..v_{j-1}, after a flow from
        v_j, the list is the one a super-source joined to the same nodes
        would leave on its side after a flow to v_j. Reversing every arc
        and swapping each node's in- and out-node turns one network into
        the other and a maximum flow of one into a maximum flow of the
        other, so in-nodes that reach SINK_in become out-nodes reached
        from the super-source. And the residual network of every maximum
        flow has the same nodes reaching the sink: they are the sink side
        of the minimum cut closest to it, whichever flow was found.
        """
        t_in = 2 * self.slot[self._ends[1]]
        seen = {t_in}
        q = deque([t_in])
        res, to = self._res, self._to
        while q:
            y = q.popleft()
            # each arc into y is the partner a ^ 1 of an arc a out of y
            for a in self._out[y]:
                x = to[a]
                if res[a ^ 1] > 0 and x not in seen:
                    seen.add(x)
                    q.append(x)
        return [v for v in self.ids if 2 * self.slot[v] in seen]

    def min_cut_separator(self) -> tuple[list[int], bool]:
        """Menger witness of the last flow, a max-flow that stopped short of its cap.

        Returns (interior nodes to delete, whether the direct s-t edge is
        part of the cut). Deleting the nodes, plus the edge when flagged,
        destroys every s-t path. The source side is what the flow's failed
        last search marked: a max-flow short of its cap ends with one.

        A flow-carrying cut edge arc whose head is s or t is the direct
        edge from s into t. No flow enters s's in-node. An interior u whose
        unit of flow goes on into t has its out-node entered only through
        its own saturated arc or back from t's unmarked in-node, so the
        search never marks it and no such arc leaves the source side.
        """
        s, t = self._ends
        seen, token = self._seen, self._token
        nodes: set[int] = set()
        direct = False
        res, cap0, to = self._res, self._cap0, self._to
        for first in self._edge_arcs.values():
            for a in (first, first + 2):
                if res[a] < cap0[a] and seen[to[a ^ 1]] == token and seen[to[a]] != token:
                    v = self.ids[to[a] // 2]
                    if v not in (s, t):
                        nodes.add(v)
                    else:
                        direct = True
        for i, v in enumerate(self.ids):
            a = 2 * i  # v's arc, from its in-node a to its out-node a + 1
            if res[a] < cap0[a] and seen[a] == token and seen[a + 1] != token:
                if v not in (s, t):
                    nodes.add(v)
        return sorted(nodes), direct

