"""Exponential-time exact solver used as ground truth in tests and bench."""

from __future__ import annotations

import time
from dataclasses import dataclass

from ._enum import iter_subsets_by_weight
from .connectivity import domination_counts, find_k_connectivity_violation
from .flow import SplitFlowNetwork
from .graph import Instance

_ORACLE_NODE_CAP = 16


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Optimum (k, m)-cds, or an absent result for infeasible instances."""

    members: frozenset[int] | None
    weight: int | None
    examined: int
    elapsed_s: float

    @property
    def feasible(self) -> bool:
        return self.members is not None


def opt_kmcds(instance: Instance) -> OracleResult:
    """Minimum-weight (k, m)-cds by weight-ordered subset enumeration.

    Ties resolve to the lexicographically first subset. Subsets of at most
    k nodes are skipped before the verifiers run, since none is
    k-connected (tests compare against an enumeration without the skip).
    Every subset is checked on one network over the graph. Capped at 16 nodes.
    """
    g = instance.graph
    if g.n > _ORACLE_NODE_CAP:
        raise ValueError(f"oracle capped at {_ORACLE_NODE_CAP} nodes")
    k, m = instance.k, instance.m
    start = time.perf_counter()
    examined = 0
    net = SplitFlowNetwork(g)
    for w, subset in iter_subsets_by_weight(g.nodes, g.weights):
        examined += 1
        if len(subset) <= k:
            continue
        if any(c < m for c in domination_counts(g, subset).values()):
            continue
        if find_k_connectivity_violation(g, k, members=subset, net=net) is not None:
            continue
        return OracleResult(frozenset(subset), w, examined, time.perf_counter() - start)
    return OracleResult(None, None, examined, time.perf_counter() - start)
