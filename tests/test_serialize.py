"""JSON round-trips and rejection of malformed documents."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kmcds import (
    Instance,
    dump_instance,
    dump_report,
    gen_gnp,
    gen_unit_disk,
    load_instance,
    solve_general,
    verify_solution,
)
from kmcds.errors import ParseError
from kmcds.serialize import (
    certificate_from_dict,
    certificate_of_report,
    certificate_to_dict,
    report_to_dict,
    verify_result_to_dict,
)

from toolbox import cycle_graph, inst, petersen


def _doc(**overrides):
    base = {
        "kind": "kmcds-instance",
        "schema_version": 1,
        "k": 1,
        "m": 1,
        "weight_denominator": 1,
        "nodes": [{"id": 0, "weight": 2}, {"id": 1, "weight": 3}],
        "edges": [[0, 1]],
    }
    base.update(overrides)
    return base


# two points at distance 1/2: one edge under radius 1
_NEAR_PAIR = [
    {"id": 0, "weight": 1, "x": "0", "y": "0"},
    {"id": 1, "weight": 1, "x": "1/2", "y": "0"},
]


def test_general_round_trip_is_byte_exact():
    instance = gen_gnp(9, 0.4, (0, 12), seed=4, k=2, m=2)
    text = dump_instance(instance)
    again = load_instance(text)
    assert dump_instance(again) == text
    assert again.graph.edges == instance.graph.edges
    assert again.graph.weights == instance.graph.weights


def test_disk_round_trip_keeps_exact_geometry():
    instance = gen_unit_disk(8, Fraction(2, 5), (1, 9), seed=9, k=1, m=1)
    again = load_instance(dump_instance(instance))
    assert again.coords == instance.coords
    assert again.radius == instance.radius
    assert again.graph.edges == instance.graph.edges


@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    instance = gen_gnp(seed % 10 + 1, 0.5, (0, 20), seed=seed)
    text = dump_instance(instance)
    assert dump_instance(load_instance(text)) == text


def test_denominator_survives():
    instance = Instance.general(2, [(0, 1)], [5, 7], 1, 1, denominator=10)
    again = load_instance(dump_instance(instance))
    assert again.weight_denominator == 10
    assert again.graph.weights == {0: 5, 1: 7}  # stored scaled, never divided


def test_json_errors_carry_position():
    with pytest.raises(ParseError, match=r"line 2, column"):
        load_instance('{\n  "kind": }')


def test_malformed_documents_are_rejected():
    cases = [
        ("[1, 2]", "object"),
        (_doc(kind="other"), "kind"),
        (_doc(schema_version=2), "schema_version"),
        (_doc(k="1"), "^k must be an int, not '1'$"),
        (_doc(m=True), "^m must be an int, not True$"),
        (_doc(weight_denominator=0), "positive"),
        (_doc(nodes=[{"id": 0, "weight": 1}, {"id": 0, "weight": 1}]), "duplicate"),
        (_doc(nodes=[{"id": 0, "weight": 1}, {"id": 5, "weight": 1}]), "dense"),
        (_doc(nodes=[{"id": 0, "weight": 1, "x": "1/2"}, {"id": 1, "weight": 1}]), "one coordinate"),
        (_doc(edges=[[0]]), "bad edge"),
        (_doc(edges=[[0, "1"]]), "bad edge"),
        (_doc(edges=[[0, 1], [0, 1]]), "duplicate"),
        (_doc(edges=[[0, 0]]), "loop"),
        (_doc(edges=[[0, 7]]), None),
        (_doc(radius="1/2"), "^one coordinate pair per node required$"),
        # coordinates and radius are exact: JSON floats and booleans are refused
        (_doc(radius=0.5, nodes=_NEAR_PAIR), "^radius 0.5 must be an int"),
        (_doc(radius=True, nodes=_NEAR_PAIR), "^radius True must be an int"),
        (_doc(radius="1", nodes=[dict(_NEAR_PAIR[0], y=0.249523), _NEAR_PAIR[1]]),
         "^coordinate 0.249523 must be an int"),
        (_doc(radius="1", nodes=[dict(_NEAR_PAIR[0], x=True), _NEAR_PAIR[1]]),
         "^coordinate True must be an int"),
        # exponents are refused, not written out digit by digit
        (_doc(radius="1", nodes=[_NEAR_PAIR[0], dict(_NEAR_PAIR[1], y="1e5000")]),
         "^coordinate '1e5000' must be an int"),
        (_doc(radius="1E-3", nodes=_NEAR_PAIR), "^radius '1E-3' must be an int"),
        (_doc(radius="1", nodes=_NEAR_PAIR, edges=[[0, 1], [0, 1]]), "duplicate"),
        (_doc(radius="1", nodes=_NEAR_PAIR, edges=[[0, 1], [1, 0]]), "duplicate"),
        (_doc(nodes=[{"id": 0, "weight": -1}, {"id": 1, "weight": 1}]), None),
        (_doc(nodes=[{"id": 0, "weight": 1}, {"id": 1, "weight": "1"}]),
         "^weight of node 1 must be an integer$"),
        (_doc(nodes=[{"id": 0, "weight": True}, {"id": 1, "weight": 1}]),
         "^weight of node 0 must be an integer$"),
        (_doc(nodes=[{"id": 0}, {"id": 1, "weight": 1}]), "^missing field 'weight'$"),
        (_doc(k=0), None),
        (_doc(m=0), None),
    ]
    for doc, fragment in cases:
        text = doc if isinstance(doc, str) else json.dumps(doc)
        with pytest.raises(ParseError, match=fragment):
            load_instance(text)


def test_bad_fraction_is_a_parse_error():
    doc = _doc(
        radius="1/0",
        nodes=[
            {"id": 0, "weight": 1, "x": "0", "y": "0"},
            {"id": 1, "weight": 1, "x": "1/2", "y": "0"},
        ],
    )
    with pytest.raises(ParseError, match="^radius '1/0' must be an int"):
        load_instance(json.dumps(doc))


def test_geometric_edges_must_match_the_radius():
    doc = _doc(
        radius="1/4",
        nodes=[
            {"id": 0, "weight": 1, "x": "0", "y": "0"},
            {"id": 1, "weight": 1, "x": "1/2", "y": "0"},
        ],
        edges=[[0, 1]],  # too far apart for radius 1/4
    )
    with pytest.raises(ParseError, match="disagrees"):
        load_instance(json.dumps(doc))


def test_report_document_shape():
    instance = inst(cycle_graph(5), 2, 2)
    report = solve_general(instance)
    doc = json.loads(dump_report(report))
    assert doc["kind"] == "kmcds-report"
    assert doc["schema_version"] == 2
    assert doc["sets"]["solution"] == [0, 1, 2, 3, 4]
    assert doc["weights"]["total"] == 5
    assert doc["instance"] == {
        "n": 5,
        "edges": 5,
        "k": 2,
        "m": 2,
        "weight_denominator": 1,
    }
    assert doc["certificate"]["members"] == [0, 1, 2, 3, 4]
    assert all(count >= 2 for _, count in doc["certificate"]["domination"])
    assert "timings_s" not in doc


def test_report_document_does_not_alias_the_report():
    report = solve_general(inst(cycle_graph(5), 2, 2))
    first = dump_report(report)
    doc = report_to_dict(report)
    del doc["guarantee"]["cited_targets"]
    doc["flags"]["dominating_padding"].append(99)
    assert dump_report(report) == first
    assert "cited_targets" in report.guarantee
    assert report.flags["dominating_padding"] == []


def test_verify_document_shape():
    instance = inst(cycle_graph(5), 1, 1)
    good = verify_result_to_dict(verify_solution(instance, [0, 1, 2]), [0, 1, 2])
    assert good["feasible"] is True
    assert good["domination_violations"] == []
    assert good["certificate"]["members"] == [0, 1, 2]

    bad = verify_result_to_dict(verify_solution(instance, [0, 2]), [0, 2])
    assert bad["feasible"] is False
    assert bad["connectivity_violation"]["separator"] == []
    assert bad["certificate"] is None


def test_certificate_round_trip():
    instance = inst(petersen(), 3, 3)
    report = solve_general(instance)
    doc = json.loads(dump_report(report))
    assert [e["pair"] for e in doc["certificate"]["pairs"]] == [[0, 1], [0, 2], [1, 2]]
    assert [e["member"] for e in doc["certificate"]["fans"]] == list(range(3, 10))
    assert certificate_from_dict(doc["certificate"]) == report.certificate
    assert certificate_of_report(doc) == report.certificate
    verify_doc = json.loads(json.dumps(
        verify_result_to_dict(verify_solution(instance, report.solution), report.solution)
    ))
    assert verify_doc["schema_version"] == 2
    assert certificate_of_report(verify_doc) == report.certificate


def test_malformed_certificates_are_rejected():
    report = solve_general(inst(petersen(), 3, 3))
    good = certificate_to_dict(report.certificate)

    def cert(**overrides):
        return {**good, **overrides}

    cases = [
        ([], "object"),
        (cert(k="3"), "wrong type"),
        (cert(members=[0, "1"]), "list of integers"),
        (cert(domination=[[0]]), "domination entry"),
        (cert(domination=[[0, 1], [0, 2]]), "duplicate domination"),
        (cert(pairs={}), "wrong type"),
        (cert(pairs=[{"paths": []}]), "'pair'"),
        (cert(pairs=[{"pair": [0, 1, 2], "paths": []}]), "bad pair"),
        (cert(pairs=good["pairs"] + good["pairs"][:1]), "duplicate pair"),
        (cert(fans=[{"member": 3, "paths": [[3, "x"]]}]), "a path"),
        (cert(fans=[{"member": True, "paths": []}]), "bad fan member"),
        (cert(fans=good["fans"] + good["fans"][:1]), "duplicate fan"),
    ]
    for doc, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            certificate_from_dict(doc)
    report_doc = json.loads(dump_report(report))
    for doc, fragment in [
        ({**report_doc, "kind": "kmcds-instance"}, "kind"),
        ({**report_doc, "schema_version": 1}, "schema_version"),
        ({**report_doc, "certificate": None}, "no certificate"),
    ]:
        with pytest.raises(ParseError, match=fragment):
            certificate_of_report(doc)
