"""Minimum-weight k-connected m-dominating set toolkit.

A (k, m)-cds of a node-weighted graph is a node set whose induced
subgraph is k-connected and which m-dominates every outside node. This
package ships approximate solvers with per-stage guarantees, exact
brute-force oracles for small instances, independent feasibility
verifiers with path certificates, and seeded instance generators.
"""

from .augment import minimal_augmenting_forest
from .connectivity import (
    Certificate,
    ConnectivityViolation,
    VerifyResult,
    build_certificate,
    check_certificate,
    domination_counts,
    find_k_connectivity_violation,
    is_k_connected,
)
from .domset import greedy_mds
from .errors import InfeasibleError, InvariantViolationError, KmcdsError, ParseError
from .flow import SplitFlowNetwork
from .generators import gen_gnp, gen_unit_disk
from .graph import Graph, Instance, attach_root, degree_stats
from .oracle import OracleResult, opt_kmcds
from .rooted import RootedProblem, exact_backend, solve_rooted_nodeweight
from .serialize import dump_instance, dump_report, load_instance, read_instance
from .solver import (
    SolutionReport,
    SolverConfig,
    precheck,
    solve_general,
    solve_guess_root,
    solve_unit_disk,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ConnectivityViolation",
    "Graph",
    "InfeasibleError",
    "Instance",
    "InvariantViolationError",
    "KmcdsError",
    "OracleResult",
    "ParseError",
    "RootedProblem",
    "SolutionReport",
    "SolverConfig",
    "SplitFlowNetwork",
    "VerifyResult",
    "attach_root",
    "build_certificate",
    "check_certificate",
    "degree_stats",
    "domination_counts",
    "dump_instance",
    "dump_report",
    "exact_backend",
    "find_k_connectivity_violation",
    "gen_gnp",
    "gen_unit_disk",
    "greedy_mds",
    "is_k_connected",
    "load_instance",
    "minimal_augmenting_forest",
    "opt_kmcds",
    "precheck",
    "read_instance",
    "solve_general",
    "solve_guess_root",
    "solve_rooted_nodeweight",
    "solve_unit_disk",
    "verify_solution",
]
