"""Command-line interface.

Subcommands: gen, solve, oracle, verify, bench. Exit codes are scriptable:
0 on success, 2 when an instance is infeasible or a verification fails,
1 on any error (bad arguments, malformed files, crashes).
"""

from __future__ import annotations

import argparse
import sys

from .bench import build_tasks, rows_to_csv, run_bench
from .connectivity import check_certificate
from .errors import InfeasibleError, KmcdsError, ParseError
from .generators import gen_gnp, gen_unit_disk
from .oracle import opt_kmcds
from .serialize import (
    REPORT_SCHEMA_VERSION,
    certificate_of_report,
    dump_instance,
    dump_report,
    dumps_canonical,
    loads_json,
    read_instance,
    verify_result_to_dict,
)
from .rooted import BACKENDS
from .solver import ATTACHMENT_RULES, SOLVERS, SolverConfig, verify_solution

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 means "infeasible"
    # here, so route usage problems to the generic error status instead
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_weight_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError("weight range looks like LO:HI, e.g. 1:100")
    return (int(lo), int(hi))


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _config_from_args(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        backend=args.backend,
        attachment_rule=args.attachment_rule,
        final_prune=not args.no_prune,
        collect_witnesses=not args.no_witnesses,
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    weight_range = _parse_weight_range(args.weights)
    if args.kind == "gnp":
        if args.p is None:
            raise ValueError("gnp generation needs --p")
        inst = gen_gnp(args.n, args.p, weight_range, args.seed, args.k, args.m)
    else:
        if args.radius is None:
            raise ValueError("unit-disk generation needs --radius")
        inst = gen_unit_disk(args.n, args.radius, weight_range, args.seed, args.k, args.m)
    _write_output(dump_instance(inst), args.output)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    report = SOLVERS[args.variant](instance, _config_from_args(args))
    _write_output(dump_report(report, include_timings=args.timings), args.output)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    result = opt_kmcds(instance)
    doc = {
        "kind": "kmcds-oracle",
        "schema_version": 1,
        "feasible": result.feasible,
        "members": sorted(result.members) if result.members is not None else None,
        "weight": result.weight,
        "subsets_examined": result.examined,
    }
    if args.timings:
        doc["elapsed_s"] = result.elapsed_s
    _write_output(dumps_canonical(doc), args.output)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _distinct_ids(ids: list) -> list[int]:
    """``ids`` when every one is an integer and none repeats; else ParseError."""
    seen: set[int] = set()
    for x in ids:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ParseError(f"member id {x!r} is not an integer")
        if x in seen:
            raise ParseError(f"member id {x} is listed more than once")
        seen.add(x)
    return ids


def _members_from_args(args: argparse.Namespace) -> list[int]:
    if args.members is not None:
        return _distinct_ids(_parse_int_list(args.members))
    doc = _read_json(args.from_report)
    if isinstance(doc, list):
        return _distinct_ids(doc)
    if isinstance(doc, dict):
        sets = doc.get("sets")
        if isinstance(sets, dict) and isinstance(sets.get("solution"), list):
            return _distinct_ids(sets["solution"])
        if isinstance(doc.get("members"), list):
            return _distinct_ids(doc["members"])
    raise ParseError("report file carries no node set")


def _read_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_json(fh.read())


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    if args.certificate is not None:
        cert = certificate_of_report(_read_json(args.certificate))
        problems = check_certificate(instance, cert)
        doc = {
            "kind": "kmcds-certificate-check",
            "schema_version": REPORT_SCHEMA_VERSION,
            "members": list(cert.members),
            "sound": not problems,
            "problems": problems,
        }
        _write_output(dumps_canonical(doc), args.output)
        return EXIT_INFEASIBLE if problems else EXIT_OK
    members = _members_from_args(args)
    result = verify_solution(instance, members, with_witnesses=not args.no_witnesses)
    _write_output(dumps_canonical(verify_result_to_dict(result, members)), args.output)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _positive_int(name: str, text: str) -> int:
    """``text`` as an integer of at least 1, else a ValueError naming ``name``."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {text!r}")
    return value


def _axis(flag: str, values: list) -> list:
    """``values`` of a sweep axis; an empty axis sweeps nothing, so it is a ValueError."""
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    jobs = _positive_int("--jobs", args.jobs)
    tasks = build_tasks(
        kinds=_axis("--kinds", [s for s in args.kinds.split(",") if s]),
        sizes=_axis("--sizes", _parse_int_list(args.sizes)),
        k_values=_axis("--k-values", _parse_int_list(args.k_values)),
        m_offsets=_axis("--m-offsets", _parse_int_list(args.m_offsets)),
        variants=_axis("--variants", [s for s in args.variants.split(",") if s]),
        per_cell=_positive_int("--per-cell", args.per_cell),
        seed=args.seed,
        p=args.p,
        radius=args.radius,
        weight_range=_parse_weight_range(args.weights),
        config=config,
        oracle_cap=args.oracle_cap,
    )
    rows, skipped = run_bench(tasks, jobs=jobs)
    _write_output(rows_to_csv(rows), args.output)
    if args.json is not None:
        doc = {
            "kind": "kmcds-bench",
            "schema_version": 1,
            "rows": [r.to_dict() for r in rows],
            "skipped_infeasible": skipped,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(doc))
    if skipped:
        print(f"note: {skipped} generated instances were infeasible", file=sys.stderr)
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend",
        choices=tuple(BACKENDS),
        default="flow-union",
        help="rooted-stage solver (exact enumerates, small pools only)",
    )
    p.add_argument(
        "--attachment-rule",
        choices=ATTACHMENT_RULES,
        default="min-weight",
        help="how the k root-attachment terminals are chosen",
    )
    p.add_argument(
        "--no-prune",
        action="store_true",
        help="skip the final inclusion-pruning pass",
    )
    p.add_argument(
        "--no-witnesses",
        action="store_true",
        help="omit explicit disjoint-path witnesses from certificates",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kmcds",
        description=(
            "Minimum-weight k-connected m-dominating set toolkit: generate, "
            "solve, verify, benchmark."
        ),
        epilog="exit codes: 0 ok, 2 infeasible instance or failed verification, 1 error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", choices=("gnp", "unit-disk"), required=True)
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument("--p", type=float, help="edge probability (gnp)")
    p.add_argument("--radius", help="disk radius as an exact fraction, e.g. 3/10")
    p.add_argument("--weights", default="1:100", help="weight range LO:HI")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument(
        "--variant",
        choices=SOLVERS,
        default="general",
    )
    _add_config_flags(p)
    p.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock stage timings (breaks byte reproducibility)",
    )
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exact optimum by subset enumeration (n <= 16)")
    p.add_argument("instance")
    p.add_argument("--timings", action="store_true")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser(
        "verify", help="check a node set, or a report's certificate, against an instance"
    )
    p.add_argument("instance")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--members", help="comma-separated node ids")
    which.add_argument(
        "--from-report",
        help="JSON file holding a report (sets.solution), oracle output, or id list",
    )
    which.add_argument(
        "--certificate",
        help="report or verify document whose own certificate is checked, "
        "without solving anything (exit 2 lists its problems)",
    )
    p.add_argument("--no-witnesses", action="store_true")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="sweep a generated instance grid")
    p.add_argument("--kinds", default="gnp,unit-disk")
    p.add_argument("--sizes", default="10,14", help="comma-separated node counts")
    p.add_argument("--k-values", default="1,2", help="comma-separated k values")
    p.add_argument(
        "--m-offsets", default="0", help="comma-separated m-k offsets (m = k+offset)"
    )
    p.add_argument(
        "--variants",
        default="general",
        help=f"comma-separated: {','.join(SOLVERS)}",
    )
    p.add_argument("--per-cell", default="3", help="instances per grid cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5, help="edge probability for gnp")
    p.add_argument("--radius", default="1/2", help="disk radius fraction")
    p.add_argument("--weights", default="1:100")
    p.add_argument(
        "--oracle-cap",
        type=int,
        default=0,
        help="run the exact oracle on instances up to this size, 0-16 (0 = never)",
    )
    p.add_argument(
        "--jobs",
        default="1",
        help="worker processes, at most one per task and per CPU (default 1)",
    )
    _add_config_flags(p)
    p.add_argument("-o", "--output", help="CSV output path (default stdout)")
    p.add_argument("--json", help="also write rows as structured JSON here")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (KmcdsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
