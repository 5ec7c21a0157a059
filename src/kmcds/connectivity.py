"""Connectivity and domination verifiers, and certificates built on them.

The flow-based tests here are the package's ground truth for Menger-style
connectivity questions. Whole-graph k-connectivity goes through one kernel,
:func:`find_k_connectivity_violation`, on Even's schedule (Even 1975,
SIAM J. Comput. 4(3); see also Esfahanian & Hakimi 1984, Networks 14):
with nodes v_1..v_n in id order, the graph is k-connected iff the first k
nodes are pairwise k-connected and every later v_j keeps k disjoint paths
to a super-sink joined to v_1..v_{j-1}. That is C(k, 2) + (n - k)
max-flows on one network instead of one per node pair; k = 1 is a plain
search and a node of degree below k is a witness without any flow. Each
later flow starts at v_j, so its search ends at the first earlier node it
meets, mostly a hop or two away, instead of sweeping the network. The
literal all-pair loop the kernel replaced, and the super-source loop it
turned around, are kept in the test suite (``tests/brutes.py``) as the
references it is compared against.

A node set S is checked by :func:`certify`: its domination counts and
that same pass over G[S] (on a network over any subgraph that holds S),
in one :class:`VerifyResult`. When S passes, the pass keeps its paths as
S's certificate: a bundle for each pair among the first k members and a
fan for each later one, C(k, 2) + (s - k) path systems for s members in
place of one per member pair.
:func:`check_certificate` re-checks them without a flow; the all-pair
certificate they replaced is the test suite's reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InfeasibleError
from .flow import SplitFlowNetwork
from .graph import Graph, Instance


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff g has more than k nodes and no pair falls below k paths.

    Runs the kernel of :func:`find_k_connectivity_violation`: at most
    C(k, 2) + (n - k) max-flows, none for k = 1 or when a node has degree
    below k.
    """
    return find_k_connectivity_violation(g, k) is None


@dataclass(frozen=True, slots=True)
class ConnectivityViolation:
    """Witness that a graph is not k-connected.

    ``separator`` disconnects ``pair`` once removed; when ``direct_edge``
    is set the pair is adjacent and the edge must be dropped as well (the
    witness then certifies local connectivity below k, Menger-style).
    ``too_small`` marks graphs with at most k nodes, where no separator is
    needed.
    """

    pair: tuple[int, int] | None
    separator: tuple[int, ...]
    direct_edge: bool
    too_small: bool = False

    @property
    def value(self) -> int:
        """The cut's size, ``len(separator) + direct_edge``: an upper bound on
        the pair's disjoint paths, equal to it when a flow found the witness."""
        return len(self.separator) + self.direct_edge

    def describe(self, removed: str) -> str:
        """The witness as a sentence; ``removed`` names what the separator holds."""
        if self.too_small:
            return f"too few {removed} to be k-connected"
        extra = " plus their shared edge" if self.direct_edge else ""
        u, v = self.pair
        return f"removing {removed} {list(self.separator)}{extra} separates {u} from {v}"


def _even_schedule(
    net: SplitFlowNetwork, nodes: Sequence[int], k: int
) -> Iterator[tuple[int, int]]:
    """The (source, sink) pairs of Even's schedule.

    First the pairs among ``nodes[:k]``, then each later node v_j with the
    super-sink, which ``net`` has joined to v_1..v_{j-1} by the time the
    pair is yielded.
    """
    for i in range(k):
        for j in range(i + 1, k):
            yield nodes[i], nodes[j]
    for v in nodes[: k - 1]:
        net.join_sink(v)
    for j in range(k, len(nodes)):
        net.join_sink(nodes[j - 1])
        yield nodes[j], SplitFlowNetwork.SINK


def find_k_connectivity_violation(
    g: Graph, k: int, paths: dict | None = None, *,
    members: Iterable[int] | None = None, net: SplitFlowNetwork | None = None,
) -> ConnectivityViolation | None:
    """None when G[members] (all of g by default) is k-connected, else a checkable witness.

    The one connectivity kernel (see the module docstring), over the
    members v_1..v_s in id order, in this order:

    - at most k members: ``too_small``;
    - k = 1: a search from the first member; the witness pairs it with
      the first member left unreached, separator ``()``;
    - k >= 2 and a member v with fewer than k member neighbours: v and its
      first non-neighbour, separated by those neighbours;
    - Even's schedule on one network: the first k members pairwise, then
      a flow from each later member v_j to the super-sink joined to
      v_1..v_{j-1}. When v_j fails, an earlier node u left on the sink
      side of the minimum cut is not adjacent to v_j and is cut off from
      it by fewer than k nodes; one u-v_j flow turns that into the usual
      pair witness. The least such u is the one the super-source loop
      this replaced would take (see :meth:`SplitFlowNetwork.sink_side`),
      so the witness is too.

    Members outside g are refused first. The flows run on ``net``, a
    network over any subgraph of g that holds the members, or on a new one
    over G[members], with its other nodes closed inside
    :meth:`SplitFlowNetwork.masks_kept`; closed arcs keep their place, so
    witness and paths are G[members]'s own. A given ``paths`` dict
    receives each flow's k paths under its (source, sink) pair; a fan,
    keyed (v_j, ``SplitFlowNetwork.SINK``), has paths from v_j to earlier
    members. k = 1 then runs the schedule: same witness as the search.
    """
    nodes = g.nodes if members is None else g.sorted_members(members)
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(nodes) <= k:
        return ConnectivityViolation(None, (), False, too_small=True)
    inside = frozenset(nodes)
    if k == 1 and paths is None:
        first = nodes[0]
        seen = {first}
        stack = [first]
        while stack:
            for w in g.adj[stack.pop()]:
                if w in inside and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(nodes):
            return None
        far = next(v for v in nodes if v not in seen)
        return ConnectivityViolation((first, far), (), False)
    if k > 1:
        for v in nodes:
            near = [w for w in g.adj[v] if w in inside]
            if len(near) < k:
                far = next(w for w in nodes if w != v and w not in near)
                return ConnectivityViolation((min(v, far), max(v, far)), tuple(near), False)

    if net is None:
        net = SplitFlowNetwork(g if members is None else g.induced(nodes))
    with net.masks_kept():
        for v in set(net.ids) - inside:
            net.set_node_open(v, False)
        for s, t in _even_schedule(net, nodes, k):
            if net.max_flow(s, t, k) >= k:
                if paths is not None:
                    paths[(s, t)] = tuple(net.extract_paths())
                continue
            if t == SplitFlowNetwork.SINK:
                # ids ascend with the index, so the least sink-side node is
                # one of v_1..v_{j-1}: fewer than k of them fall in the cut
                s, t = net.sink_side()[0], s
                net.max_flow(s, t, k)
            cut, direct = net.min_cut_separator()
            return ConnectivityViolation((s, t), tuple(cut), direct)
    return None


def domination_counts(g: Graph, members: Iterable[int]) -> dict[int, int]:
    """For each node outside ``members``: its neighbor count inside."""
    inside = frozenset(members)
    return {
        v: sum(1 for w in g.adj[v] if w in inside)
        for v in g.nodes
        if v not in inside
    }


@dataclass(frozen=True, slots=True)
class Certificate:
    """Verifiable evidence that a node set is a (k, m)-cds, on Even's schedule.

    ``members`` lists the set in ascending id order, v_1..v_s.
    ``domination_counts`` gives, for every node outside the set, how many
    of its neighbors are members (each must reach m). ``pairs`` maps each
    of the C(k, 2) pairs (v_a, v_b), a < b <= k, to k internally disjoint
    v_a-v_b paths. ``fans`` maps each later member v_j, j > k, to k paths
    that start at v_j, end at k distinct earlier members and share no node
    but v_j. Paths are node sequences inside the induced subgraph.
    :func:`check_certificate` says why these suffice. Both maps are empty
    when the certificate was built without witnesses.
    """

    k: int
    m: int
    members: tuple[int, ...]
    domination_counts: Mapping[int, int]
    pairs: Mapping[tuple[int, int], tuple[tuple[int, ...], ...]]
    fans: Mapping[int, tuple[tuple[int, ...], ...]]


@dataclass(frozen=True, slots=True)
class VerifyResult:
    """What :func:`certify` found about a node set S, each fact stored once.

    ``domination_violations`` maps every node outside S with fewer than m
    member neighbors to its count, in id order. ``connectivity_violation``
    is the kernel's witness that G[S] is not k-connected, or None.
    ``certificate`` is present exactly when both are empty. The verdicts
    ``domination_ok``, ``connectivity_ok`` and ``feasible`` are read from
    these fields, so a record cannot contradict itself.
    """

    domination_violations: dict[int, int]
    connectivity_violation: ConnectivityViolation | None
    certificate: Certificate | None

    @property
    def domination_ok(self) -> bool:
        return not self.domination_violations

    @property
    def connectivity_ok(self) -> bool:
        return self.connectivity_violation is None

    @property
    def feasible(self) -> bool:
        return self.domination_ok and self.connectivity_ok


def certify(
    g: Graph, members: Iterable[int], k: int, m: int, with_witnesses: bool = True,
    *, net: SplitFlowNetwork | None = None,
) -> VerifyResult:
    """Both checks of a node set S, in one kernel pass over G[S].

    The kernel runs even when domination fails, so the record reports
    both checks; it keeps its paths, for the certificate, only when S
    m-dominates and ``with_witnesses`` is set. ``net`` is the kernel's.
    """
    inside = g.sorted_members(members)
    counts = domination_counts(g, inside)
    short = {v: c for v, c in counts.items() if c < m}
    paths: dict = {}
    violation = find_k_connectivity_violation(
        g, k, paths if with_witnesses and not short else None, members=inside, net=net
    )
    if short or violation is not None:
        return VerifyResult(short, violation, None)
    sink = SplitFlowNetwork.SINK
    pairs = {(s, t): p for (s, t), p in paths.items() if t != sink}
    fans = {s: p for (s, t), p in paths.items() if t == sink}
    return VerifyResult(short, None, Certificate(k, m, inside, counts, pairs, fans))


def build_certificate(
    g: Graph, members: Iterable[int], k: int, m: int, with_witnesses: bool = True,
    *, net: SplitFlowNetwork | None = None,
) -> Certificate:
    """:func:`certify`'s certificate; raises :class:`InfeasibleError` if there is none.

    The error names the first node short of m member neighbors, else the kernel's witness.
    """
    result = certify(g, members, k, m, with_witnesses, net=net)
    short = result.domination_violations
    if short:
        v = next(iter(short))  # the least id: the counts run in id order
        raise InfeasibleError(f"node {v} has only {short[v]} member neighbors")
    violation = result.connectivity_violation
    if violation is None:
        return result.certificate
    if violation.too_small:
        raise InfeasibleError("a k-connected set needs more than k nodes")
    raise InfeasibleError(violation.describe("members"))


def _path_problems(
    name: str,
    paths: tuple[tuple[int, ...], ...],
    start: int,
    k: int,
    g: Graph,
    rank: Mapping[int, int],
) -> list[str]:
    """Rules every path system shares: k simple paths from ``start`` inside G[rank]."""
    problems = []
    if len(paths) != k:
        problems.append(f"{name}: {len(paths)} paths, need {k}")
    for path in paths:
        text = "-".join(map(str, path))
        if len(path) < 2:
            problems.append(f"{name}: path {text} has fewer than two nodes")
        elif path[0] != start:
            problems.append(f"{name}: path {text} does not start at {start}")
        elif len(set(path)) != len(path):
            problems.append(f"{name}: path {text} is not simple")
        else:
            for a, b in zip(path, path[1:]):
                if a not in rank or b not in rank or not g.has_edge(a, b):
                    problems.append(f"{name}: path {text} uses edge {a}-{b} outside G[S]")
                    break
    return problems


def _shared_node_problem(name: str, parts: Iterable[tuple[int, ...]]) -> str | None:
    seen: set[int] = set()
    for part in parts:
        for x in part:
            if x in seen:
                return f"{name}: node {x} is on two paths"
            seen.add(x)
    return None


def check_certificate(instance: Instance, cert: Certificate) -> list[str]:
    """Every reason ``cert`` fails to prove a (k, m)-cds of ``instance``; [] when sound.

    Runs no flow. It recomputes the domination counts from the graph and
    checks that k and m are the instance's, that the members are sorted,
    distinct nodes of the graph and more than k of them, that every pair
    among v_1..v_k has a bundle and every later member a fan (and nothing
    else does), that every path is simple with every edge in G[S], that the
    paths of one system are internally disjoint (a bundle's paths distinct,
    a fan's sharing nothing but its node), and that a fan's ends are
    distinct members earlier than its node.

    Why that proves G[S] k-connected (Even's lemma, Even 1975, SIAM J.
    Comput. 4(3)): suppose X ⊂ S with |X| < k separates G[S]. Let v_a be
    the first member outside X, C its component of G[S] - X, and v_b the
    first member outside X ∪ C. If b <= k, each path of the (v_a, v_b)
    bundle leaves C, so it has an interior node in X, and the k paths
    have disjoint interiors: |X| >= k. Otherwise v_1..v_{b-1} all lie in
    X ∪ C, so each of v_b's k fan paths, which runs from outside X ∪ C to
    its end inside it, meets X at a node other than v_b, and the paths
    share no such node: again |X| >= k. With |S| > k, no such X exists.
    """
    g = instance.graph
    k, m = instance.k, instance.m
    problems = []
    if cert.k != k:
        problems.append(f"certificate k is {cert.k}, the instance's is {k}")
    if cert.m != m:
        problems.append(f"certificate m is {cert.m}, the instance's is {m}")
    members = tuple(cert.members)
    missing = [v for v in members if not g.has_node(v)]
    if missing:
        return problems + [f"member {missing[0]} is not a node of the graph"]
    if list(members) != sorted(set(members)):
        return problems + ["members are not sorted and distinct"]
    if len(members) <= k:
        problems.append(f"{len(members)} members cannot be {k}-connected, need more than {k}")
    counts = domination_counts(g, members)
    if counts != dict(cert.domination_counts):
        problems.append("domination counts disagree with the graph")
    short = [v for v, c in counts.items() if c < m]
    if short:
        v = short[0]
        problems.append(f"node {v} has {counts[v]} member neighbors, need {m}")

    head = members[:k]
    wanted_pairs = [(u, v) for i, u in enumerate(head) for v in head[i + 1:]]
    for u, v in wanted_pairs:
        if (u, v) not in cert.pairs:
            problems.append(f"no pair bundle for members {u} and {v}")
    for pair in sorted(set(cert.pairs) - set(wanted_pairs)):
        problems.append(f"pair bundle for {pair}, which is not a pair of the first k members")
    uncovered = [v for v in members[k:] if v not in cert.fans]
    if uncovered:
        problems.append(f"no fan for members {uncovered}")
    rank = {v: i for i, v in enumerate(members)}
    for v in sorted(set(cert.fans) - set(members[k:])):
        problems.append(f"fan for {v}, which is not a member after the first k")

    for (u, v), paths in sorted(cert.pairs.items()):
        name = f"pair {u}-{v}"
        found = _path_problems(name, paths, u, k, g, rank)
        if any(p[-1] != v for p in paths if p):
            found.append(f"{name}: a path does not end at {v}")
        if len(set(paths)) != len(paths):
            found.append(f"{name}: a path appears twice")
        shared = _shared_node_problem(name, (p[1:-1] for p in paths))
        problems += found + ([shared] if shared else [])
    for v, paths in sorted(cert.fans.items()):
        name = f"fan of {v}"
        found = _path_problems(name, paths, v, k, g, rank)
        ends = [p[-1] for p in paths if p]
        for end in sorted(set(ends)):
            if ends.count(end) > 1:
                found.append(f"{name}: {ends.count(end)} paths end at {end}")
            if rank.get(end, len(members)) >= rank.get(v, -1):
                found.append(f"{name}: a path ends at {end}, which is not an earlier member")
        shared = _shared_node_problem(name, (p[1:] for p in paths))
        problems += found + ([shared] if shared else [])
    return problems
