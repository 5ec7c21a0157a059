"""Seeded solver outputs pinned by hash, so a refactor can show it changed none.

Each case's text is what must stay byte-identical: a report's
``dump_report`` text followed by its ``stage_seconds`` key list, an
infeasible or error message, or a ``verify`` document.
``golden_reports.json`` maps each case name to the first 16 hex digits of
the sha256 of its text. A change that alters output on purpose says so and
rewrites the file with

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import kmcds.solver as solver_mod
from kmcds import (
    SolverConfig,
    dump_report,
    gen_gnp,
    gen_unit_disk,
    solve_general,
    solve_guess_root,
    solve_unit_disk,
    verify_solution,
)
from kmcds.errors import InfeasibleError
from kmcds.serialize import dumps_canonical, verify_result_to_dict

GOLDEN = Path(__file__).with_name("golden_reports.json")

GENERAL_CONFIGS = {
    "default": SolverConfig(),
    "no-prune": SolverConfig(final_prune=False),
    "no-witnesses": SolverConfig(collect_witnesses=False),
    "enumerate": SolverConfig(attachment_rule="enumerate"),
    "enum-cap3": SolverConfig(attachment_rule="enumerate", attachment_enum_cap=3),
}
GUESS_CONFIGS = {
    "flow-union": SolverConfig(),
    "exact": SolverConfig(backend="exact"),
    "enum-cap3": GENERAL_CONFIGS["enum-cap3"],
}
UNIT_DISK_CONFIGS = {
    "default": SolverConfig(),
    "no-prune": SolverConfig(final_prune=False),
}


def _weights(rng: random.Random) -> tuple[int, int]:
    return rng.choice(((1, 30), (0, 3)))


def _gnp(seed: int, n_range: tuple[int, int], k_values: tuple[int, ...]):
    rng = random.Random(seed)
    k = rng.choice(k_values)
    n = rng.randint(*n_range)
    return gen_gnp(n, rng.uniform(0.45, 0.8), _weights(rng), seed, k, k + rng.randint(0, 2))


def _disk(seed: int):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    n = rng.randint(9, 13)
    radius = Fraction(rng.randint(40, 65), 100)
    return gen_unit_disk(n, radius, _weights(rng), seed, k, k + rng.randint(0, 1))


def _solve_text(solve, instance, config) -> str:
    try:
        report = solve(instance, config)
    except InfeasibleError as exc:
        return f"infeasible: {exc}"
    except ValueError as exc:
        return f"error: {exc}"
    return dump_report(report) + json.dumps(list(report.stage_seconds))


def _starved(instance):
    """A patch under which the rooted stage refuses every guess-root candidate."""
    real = solver_mod.solve_rooted_nodeweight

    def starve(problem, backend="flow-union", net=None):
        if problem.root in instance.graph.nodes:  # the virtual root is n
            raise InfeasibleError("forced")
        return real(problem, backend, net)

    return mock.patch.object(solver_mod, "solve_rooted_nodeweight", starve)


def cases():
    """Yield (case name, text) for every pinned output."""
    for seed in range(40):
        instance = _gnp(seed, (7, 11), (1, 2, 3))
        for name, config in GENERAL_CONFIGS.items():
            yield f"general/s{seed}/{name}", _solve_text(solve_general, instance, config)
    for seed in range(30):
        instance = _gnp(seed, (7, 11), (1, 2, 3))
        try:
            solution = list(solve_general(instance).solution)
        except InfeasibleError:
            continue
        for label, members in (("solution", solution), ("short", solution[1:])):
            result = verify_solution(instance, members, with_witnesses=seed % 2 == 0)
            doc = dumps_canonical(verify_result_to_dict(result, members))
            yield f"verify/s{seed}/{label}", doc
    for seed in range(30):
        instance = _gnp(100 + seed, (6, 9), (2, 3))
        for name, config in GUESS_CONFIGS.items():
            yield f"guess-root/s{100 + seed}/{name}", _solve_text(
                solve_guess_root, instance, config
            )
    for seed in range(6):
        instance = _gnp(200 + seed, (6, 9), (2, 3))
        for name in ("flow-union", "enum-cap3"):
            with _starved(instance):
                yield f"guess-root-fallback/s{200 + seed}/{name}", _solve_text(
                    solve_guess_root, instance, GUESS_CONFIGS[name]
                )
    for seed in range(32):
        instance = _disk(300 + seed)
        for name, config in UNIT_DISK_CONFIGS.items():
            yield f"unit-disk/s{300 + seed}/{name}", _solve_text(
                solve_unit_disk, instance, config
            )
    for seed in (400, 401):
        rng = random.Random(seed)
        instance = gen_gnp(8, 0.6, (1, 9), seed, 1, 1 + rng.randint(0, 1))
        yield f"error/s{seed}/guess-root-k1", _solve_text(solve_guess_root, instance, None)
        yield f"error/s{seed}/unit-disk-plain", _solve_text(solve_unit_disk, instance, None)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def current() -> dict[str, str]:
    return {name: digest(text) for name, text in cases()}


def test_outputs_match_the_pinned_hashes():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = current()
    differ = sorted(name for name in expected.keys() & got.keys() if expected[name] != got[name])
    missing = sorted(expected.keys() - got.keys())
    extra = sorted(got.keys() - expected.keys())
    assert not (differ or missing or extra), (
        f"differ: {differ}; missing: {missing}; new: {extra}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_reports.py --write")
    GOLDEN.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
