"""Every public input check raises its own exception with its own message."""

import json
import re
from fractions import Fraction

import pytest

from kmcds import Graph, Instance, ParseError, RootedProblem, SolverConfig, SplitFlowNetwork
from kmcds import dump_instance, find_k_connectivity_violation, gen_gnp, gen_unit_disk
from kmcds import load_instance, verify_solution
from kmcds._enum import iter_subsets_by_weight
from kmcds.connectivity import certify
from kmcds.graph import _disk_edges

PTS = ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)))
PAIR = Graph(range(2), [(0, 1)])
C4 = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
NOT_EXACT = (
    'must be an int, a Fraction or a string such as "3/10", '
    "with no exponent and a nonzero denominator"
)
TOO_LONG = "has a numerator or denominator of more than 4300 digits"
# PTS as instance-file nodes; FAR_PAIR moves node 1 to y = 10**5000, read as written
NEAR_PAIR = [
    {"id": 0, "weight": 1, "x": "0", "y": "0"}, {"id": 1, "weight": 1, "x": "1/2", "y": "0"},
]
FAR_PAIR = [NEAR_PAIR[0], dict(NEAR_PAIR[1], x="0", y="1e5000")]


def _instance_text(**changes):
    """A valid two-node instance file with ``changes`` applied; None drops a field."""
    doc = {
        "kind": "kmcds-instance", "schema_version": 1, "k": 1, "m": 1,
        "nodes": [{"id": 0, "weight": 1}, {"id": 1, "weight": 1}], "edges": [[0, 1]],
    }
    doc.update(changes)
    return json.dumps({key: value for key, value in doc.items() if value is not None})


def _case(name, exc, message, call):
    return pytest.param(call, exc, message, id=name)


CHECKS = [
    _case("subset-weights", ValueError, "weights must be nonnegative",
          lambda: list(iter_subsets_by_weight([0], {0: -1}))),
    _case("kernel-k", ValueError, "k must be at least 1",
          lambda: find_k_connectivity_violation(PAIR, 0)),
    _case("kernel-stray-members", ValueError, "nodes [99] not in graph",
          lambda: find_k_connectivity_violation(C4, 0, members=[0, 1, 99])),
    _case("certify-stray-members", ValueError, "nodes [99] not in graph",
          lambda: certify(C4, [0, 1, 99], 2, 2)),
    _case("kernel-mixed-stray-members", ValueError, "nodes ['a'] not in graph",
          lambda: find_k_connectivity_violation(C4, 2, members=["a", 1])),
    _case("certify-mixed-stray-members", ValueError, "nodes ['a'] not in graph",
          lambda: certify(C4, ["a", 1], 2, 2)),
    _case("verify-stray-members", ValueError, "nodes [99, 'a'] not in graph",
          lambda: verify_solution(Instance(C4, 2, 2), ["a", 1, 99])),
    _case("induced-mixed-stray-members", ValueError, "nodes [99, None] not in graph",
          lambda: C4.induced([None, 99, 1])),
    _case("rooted-k", ValueError, "k must be at least 1",
          lambda: RootedProblem(PAIR, 0, (1,), (), k=0)),
    _case("max-flow-ends", ValueError, "source equals sink",
          lambda: SplitFlowNetwork(PAIR).max_flow(1, 1, 1)),
    _case("min-cost-ends", ValueError, "source equals sink",
          lambda: SplitFlowNetwork(PAIR).min_cost_flow(1, 1, 1)),
    _case("gen-disk-n", ValueError, "need at least one node",
          lambda: gen_unit_disk(0, "1/2")),
    _case("gen-disk-weights", ValueError, "weight range must be 0 <= lo <= hi",
          lambda: gen_unit_disk(3, "1/2", (5, 1))),
    _case("unit-disk-radius", ValueError, "radius must be nonnegative",
          lambda: Instance.unit_disk(PTS, Fraction(-1), [1, 1], 1, 1)),
    _case("instance-radius", ValueError, "radius must be nonnegative",
          lambda: Instance(PAIR, 1, 1, coords=PTS, radius=Fraction(-1))),
    _case("gen-disk-radius", ValueError, "radius must be nonnegative",
          lambda: gen_unit_disk(3, "-1/2")),
    # the sign comes first, before a single point is read
    _case("disk-edges-radius", ValueError, "radius must be nonnegative",
          lambda: _disk_edges({0: (None, None)}, Fraction(-1))),
    _case("gen-disk-radius-digits", ValueError, f"radius {TOO_LONG}",
          lambda: dump_instance(gen_unit_disk(3, 10**5000))),
    _case("unit-disk-coordinate-digits", ValueError, f"coordinate of node 1 {TOO_LONG}",
          lambda: Instance.unit_disk(((0, 0), (Fraction(1, 10**5000), 0)), 1, [1, 1], 1, 1)),
    _case("instance-coordinate-digits", ValueError, f"coordinate of node 0 {TOO_LONG}",
          lambda: Instance(PAIR, 1, 1, coords=((-(10**4300), 0), PTS[1]), radius=Fraction(1))),
    _case("instance-float-radius", ValueError,
          "radius and coordinates must be ints or Fractions, not 0.5",
          lambda: Instance(PAIR, 1, 1, coords=PTS, radius=0.5)),
    _case("instance-bool-coordinate", ValueError,
          "radius and coordinates must be ints or Fractions, not True",
          lambda: Instance(PAIR, 1, 1, coords=((True, 0), PTS[1]), radius=Fraction(1))),
    _case("gen-disk-float-radius", ValueError, f"radius 0.3 {NOT_EXACT}",
          lambda: gen_unit_disk(5, 0.3)),
    _case("unit-disk-float-coordinate", ValueError, f"coordinate 0.5 {NOT_EXACT}",
          lambda: Instance.unit_disk(((0, 0), (0.5, 0)), 1, [1, 1], 1, 1)),
    _case("gen-disk-exponent-radius", ValueError, f"radius '1e5000' {NOT_EXACT}",
          lambda: gen_unit_disk(5, "1e5000")),
    _case("gen-disk-zero-denominator", ValueError, f"radius '1/0' {NOT_EXACT}",
          lambda: gen_unit_disk(3, "1/0")),
    _case("gen-disk-long-radius", ValueError, f"radius '1E{'0' * 34}... {NOT_EXACT}",
          lambda: gen_unit_disk(3, "1E" + "0" * 100)),
    _case("unit-disk-exponent-coordinate", ValueError, f"coordinate '1e5000' {NOT_EXACT}",
          lambda: Instance.unit_disk(((0, 0), (0, "1e5000")), 1, [1, 1], 1, 1)),
    _case("unit-disk-zero-denominator", ValueError, f"radius '1/0' {NOT_EXACT}",
          lambda: Instance.unit_disk(PTS, "1/0", [1, 1], 1, 1)),
    _case("unit-disk-bool-radius", ValueError, f"radius True {NOT_EXACT}",
          lambda: Instance.unit_disk(PTS, True, [1, 1], 1, 1)),
    _case("denominator", ValueError, "weight denominator must be positive",
          lambda: Instance(PAIR, 1, 1, weight_denominator=0)),
    _case("float-denominator", ValueError, "weight denominator must be an int, not 2.0",
          lambda: Instance(PAIR, 1, 1, weight_denominator=2.0)),
    _case("float-k", ValueError, "k must be an int, not 2.5",
          lambda: gen_gnp(12, 0.6, (1, 9), 1, 2.5, 3)),
    _case("bool-k", ValueError, "k must be an int, not True",
          lambda: Instance(PAIR, True, 1)),
    _case("float-m", ValueError, "m must be an int, not 1.0",
          lambda: Instance(PAIR, 1, 1.0)),
    _case("coords-without-radius", ValueError, "coords and radius must be given together",
          lambda: Instance(PAIR, 1, 1, coords=PTS)),
    _case("coords-count", ValueError, "one coordinate pair per node required",
          lambda: Instance(PAIR, 1, 1, coords=PTS[:1], radius=Fraction(1))),
    _case("general-weights", ValueError, "one weight per node required",
          lambda: Instance.general(2, [(0, 1)], [1], 1, 1)),
    _case("unit-disk-weights", ValueError, "one weight per node required",
          lambda: Instance.unit_disk(PTS, Fraction(1), [1], 1, 1)),
    _case("rooted-pool", ValueError, "node 7 not in graph",
          lambda: RootedProblem(PAIR, 0, (1,), (7,), k=1)),
    _case("backend", ValueError, "unknown backend 'x'",
          lambda: SolverConfig(backend="x")),
    _case("attachment-rule", ValueError, "unknown attachment rule 'x'",
          lambda: SolverConfig(attachment_rule="x")),
    _case("config-final-prune", ValueError, "final_prune must be a bool, not 'no'",
          lambda: SolverConfig(final_prune="no")),
    _case("config-collect-witnesses", ValueError, "collect_witnesses must be a bool, not 0",
          lambda: SolverConfig(collect_witnesses=0)),
    _case("config-str-enum-cap", ValueError,
          "attachment_enum_cap must be a nonnegative int, not '3'",
          lambda: SolverConfig(attachment_rule="enumerate", attachment_enum_cap="3")),
    _case("config-bool-enum-cap", ValueError,
          "attachment_enum_cap must be a nonnegative int, not True",
          lambda: SolverConfig(attachment_enum_cap=True)),
    _case("config-negative-enum-cap", ValueError,
          "attachment_enum_cap must be a nonnegative int, not -1",
          lambda: SolverConfig(attachment_enum_cap=-1)),
    _case("parse-missing-k", ParseError, "missing field 'k'",
          lambda: load_instance(_instance_text(k=None))),
    _case("parse-node-object", ParseError, "each node must be an object",
          lambda: load_instance(_instance_text(nodes=[1, 2]))),
    _case("parse-partial-coords", ParseError, "one coordinate pair per node required",
          lambda: load_instance(_instance_text(
              nodes=[{"id": 0, "weight": 1, "x": "0", "y": "0"}, {"id": 1, "weight": 1}],
              radius="1",
          ))),
    _case("parse-coords-without-radius", ParseError,
          "coords and radius must be given together",
          lambda: load_instance(_instance_text(nodes=NEAR_PAIR))),
    _case("parse-fraction-denominator", ParseError,
          "weight denominator must be an int, not 1.5",
          lambda: load_instance(_instance_text(weight_denominator=1.5))),
    _case("parse-bool-denominator", ParseError,
          "weight denominator must be an int, not True",
          lambda: load_instance(_instance_text(weight_denominator=True))),
    _case("parse-zero-denominator-field", ParseError, "weight denominator must be positive",
          lambda: load_instance(_instance_text(weight_denominator=0))),
    _case("parse-long-denominator", ParseError,
          "weight denominator must be an int, not '" + "x" * 39,
          lambda: load_instance(_instance_text(weight_denominator="x" * 1000))),
    _case("parse-exponent-coordinate", ParseError, f"coordinate '1e5000' {NOT_EXACT}",
          lambda: load_instance(_instance_text(nodes=FAR_PAIR, edges=[], radius="1"))),
    _case("parse-zero-denominator", ParseError, f"radius '1/0' {NOT_EXACT}",
          lambda: load_instance(_instance_text(nodes=NEAR_PAIR, radius="1/0"))),
    _case("parse-negative-radius", ParseError, "radius must be nonnegative",
          lambda: load_instance(_instance_text(nodes=NEAR_PAIR, radius="-1/2"))),
]


@pytest.mark.parametrize("call, exc, message", CHECKS)
def test_input_check_raises_its_message(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def test_numbers_of_4300_digits_are_written_and_read_back():
    # the largest numbers an instance keeps still go to text and back
    longest = 10**4300 - 1
    inst = Instance.unit_disk(((0, 0), (Fraction(1, longest), 0)), longest, [1, 1], 1, 1)
    again = load_instance(dump_instance(inst))
    assert (again.coords, again.radius, again.graph.edges) == (inst.coords, inst.radius, ((0, 1),))
