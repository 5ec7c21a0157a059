"""Instance and report serialization.

Everything is plain JSON with sorted keys and a trailing newline, so
fixtures diff cleanly and identical inputs serialize byte-identically.
Weights are stored as scaled nonnegative integers next to a single
``weight_denominator``; coordinates and the disk radius are stored as
exact fraction strings ("3/10"), never floats.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Iterable, TYPE_CHECKING

from .connectivity import Certificate, VerifyResult
from .errors import ParseError
from .graph import Graph, Instance, read_exact

if TYPE_CHECKING:  # pragma: no cover
    from .solver import SolutionReport

SCHEMA_VERSION = 1  # instance files
REPORT_SCHEMA_VERSION = 2  # reports and verify documents: Even-schedule certificates
INSTANCE_KIND = "kmcds-instance"
REPORT_KIND = "kmcds-report"
VERIFY_KIND = "kmcds-verify"


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def instance_to_dict(instance: Instance) -> dict:
    g = instance.graph
    nodes = []
    for v in g.nodes:
        entry: dict[str, Any] = {"id": v, "weight": g.weights[v]}
        if instance.coords is not None:
            x, y = instance.coords[v]
            entry["x"] = str(x)
            entry["y"] = str(y)
        nodes.append(entry)
    doc: dict[str, Any] = {
        "kind": INSTANCE_KIND,
        "schema_version": SCHEMA_VERSION,
        "k": instance.k,
        "m": instance.m,
        "weight_denominator": instance.weight_denominator,
        "nodes": nodes,
        "edges": [[u, v] for u, v in g.edges],
    }
    if instance.radius is not None:
        doc["radius"] = str(instance.radius)
    return doc


def dump_instance(instance: Instance) -> str:
    return dumps_canonical(instance_to_dict(instance))


def _field(doc: dict, key: str) -> Any:
    if key not in doc:
        raise ParseError(f"missing field {key!r}")
    return doc[key]


def _require(doc: dict, key: str, kinds: tuple[type, ...]) -> Any:
    value = _field(doc, key)
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ParseError(f"field {key!r} has the wrong type")
    return value


def instance_from_dict(doc: Any) -> Instance:
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    if doc.get("kind") != INSTANCE_KIND:
        raise ParseError(f"kind must be {INSTANCE_KIND!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    k = _field(doc, "k")
    m = _field(doc, "m")
    raw_nodes = _require(doc, "nodes", (list,))
    raw_edges = _require(doc, "edges", (list,))

    seen_ids = set()
    weights_by_id: dict[int, int] = {}
    coords_by_id: dict[int, tuple[Any, Any]] = {}
    for entry in raw_nodes:
        if not isinstance(entry, dict):
            raise ParseError("each node must be an object")
        v = _require(entry, "id", (int,))
        w = _field(entry, "weight")
        if v in seen_ids:
            raise ParseError(f"duplicate node id {v}")
        seen_ids.add(v)
        weights_by_id[v] = w
        has_x, has_y = "x" in entry, "y" in entry
        if has_x != has_y:
            raise ParseError(f"node {v} has only one coordinate")
        if has_x:
            coords_by_id[v] = (entry["x"], entry["y"])
    n = len(raw_nodes)
    if seen_ids != set(range(n)):
        raise ParseError("node ids must be dense 0..n-1")

    edges = []
    for pair in raw_edges:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
        ):
            raise ParseError(f"bad edge entry {pair!r}")
        edges.append((pair[0], pair[1]))

    try:
        # the file's own edges and numbers; Graph refuses a weight that is
        # not an int, and Instance a k or m that is not one, a partial or
        # unpaired geometry, a bad denominator and edges off the disk rule
        return Instance(
            graph=Graph(range(n), edges, weights_by_id),
            k=k,
            m=m,
            coords=tuple(
                (read_exact(x, "coordinate"), read_exact(y, "coordinate"))
                for _, (x, y) in sorted(coords_by_id.items())
            ) if coords_by_id or "radius" in doc else None,
            radius=read_exact(doc["radius"], "radius") if "radius" in doc else None,
            weight_denominator=doc.get("weight_denominator", 1),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def loads_json(text: str) -> Any:
    """The JSON document in ``text``.

    A syntax error names its line and column; nesting deeper than the
    parser's recursion limit is a :class:`ParseError` too.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("the JSON document is nested too deeply") from None


def load_instance(text: str) -> Instance:
    return instance_from_dict(loads_json(text))


def read_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return load_instance(fh.read())


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "k": cert.k,
        "m": cert.m,
        "members": list(cert.members),
        "domination": [[v, c] for v, c in sorted(cert.domination_counts.items())],
        "pairs": [
            {"pair": [u, v], "paths": [list(p) for p in paths]}
            for (u, v), paths in sorted(cert.pairs.items())
        ],
        "fans": [
            {"member": v, "paths": [list(p) for p in paths]}
            for v, paths in sorted(cert.fans.items())
        ],
    }


def _int_list(value: Any, what: str) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise ParseError(f"{what} must be a list of integers")
    return value


def _path_systems(doc: dict, field: str, key: str) -> list[tuple[Any, tuple]]:
    entries = _require(doc, field, (list,))
    out = []
    for entry in entries:
        if not isinstance(entry, dict) or key not in entry:
            raise ParseError(f"each {field} entry must be an object with {key!r}")
        paths = _require(entry, "paths", (list,))
        out.append((entry[key], tuple(tuple(_int_list(p, "a path")) for p in paths)))
    return out


def certificate_from_dict(doc: Any) -> Certificate:
    """Inverse of :func:`certificate_to_dict`; checks shape, not soundness."""
    if not isinstance(doc, dict):
        raise ParseError("certificate must be an object")
    k = _require(doc, "k", (int,))
    m = _require(doc, "m", (int,))
    members = _int_list(_require(doc, "members", (list,)), "members")
    counts: dict[int, int] = {}
    for entry in _require(doc, "domination", (list,)):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"bad domination entry {entry!r}")
        v, c = _int_list(entry, "a domination entry")
        if v in counts:
            raise ParseError(f"duplicate domination entry for node {v}")
        counts[v] = c
    pairs: dict[tuple[int, int], tuple] = {}
    for pair, paths in _path_systems(doc, "pairs", "pair"):
        if len(_int_list(pair, "a pair")) != 2:
            raise ParseError(f"bad pair {pair!r}")
        if tuple(pair) in pairs:
            raise ParseError(f"duplicate pair bundle {pair!r}")
        pairs[tuple(pair)] = paths
    fans: dict[int, tuple] = {}
    for v, paths in _path_systems(doc, "fans", "member"):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"bad fan member {v!r}")
        if v in fans:
            raise ParseError(f"duplicate fan for member {v}")
        fans[v] = paths
    return Certificate(k, m, tuple(members), counts, pairs, fans)


def certificate_of_report(doc: Any) -> Certificate:
    """The certificate carried by a report or verify document."""
    if not isinstance(doc, dict) or doc.get("kind") not in (REPORT_KIND, VERIFY_KIND):
        raise ParseError(f"kind must be {REPORT_KIND!r} or {VERIFY_KIND!r}")
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    if doc.get("certificate") is None:
        raise ParseError("the document carries no certificate")
    return certificate_from_dict(doc["certificate"])


def report_to_dict(report: "SolutionReport", include_timings: bool = False) -> dict:
    doc: dict[str, Any] = {
        "kind": REPORT_KIND,
        "schema_version": REPORT_SCHEMA_VERSION,
        "variant": report.variant,
        "config": report.config.to_dict(),
        "instance": {
            "n": report.n,
            "edges": report.edge_count,
            "k": report.k,
            "m": report.m,
            "weight_denominator": report.weight_denominator,
        },
        "sets": {
            "dominating": list(report.dominating),
            "connectors": list(report.connectors),
            "pair_connectors": list(report.pair_connectors),
            "attachment": list(report.attachment),
            "forest": [[u, v] for u, v in report.forest],
            "guess_root": report.guess_root,
            "pruned": list(report.pruned),
            "solution": list(report.solution),
        },
        "weights": dict(report.weights),
        # deep copies: editing the document must not edit the report
        "guarantee": copy.deepcopy(report.guarantee),
        "flags": copy.deepcopy(report.flags),
        "certificate": certificate_to_dict(report.certificate),
    }
    if include_timings:
        doc["timings_s"] = dict(report.stage_seconds)
    return doc


def dump_report(report: "SolutionReport", include_timings: bool = False) -> str:
    return dumps_canonical(report_to_dict(report, include_timings))


def verify_result_to_dict(result: VerifyResult, members: Iterable[int]) -> dict:
    violation = None
    if result.connectivity_violation is not None:
        v = result.connectivity_violation
        violation = {
            "pair": list(v.pair) if v.pair is not None else None,
            "separator": list(v.separator),
            "direct_edge": v.direct_edge,
            "paths_found": v.value,
            "too_small": v.too_small,
        }
    return {
        "kind": VERIFY_KIND,
        "schema_version": REPORT_SCHEMA_VERSION,
        "members": sorted(members),
        "feasible": result.feasible,
        "domination_ok": result.domination_ok,
        "domination_violations": [
            [v, c] for v, c in sorted(result.domination_violations.items())
        ],
        "connectivity_ok": result.connectivity_ok,
        "connectivity_violation": violation,
        "certificate": (
            certificate_to_dict(result.certificate)
            if result.certificate is not None
            else None
        ),
    }
