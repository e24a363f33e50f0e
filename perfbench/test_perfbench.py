"""Fault injection for the benchmark's output checks.

Each workload's check must accept the real result and reject a perturbed
one (a changed matrix entry, a dropped tower, a wrong Lipschitz value), so
the correctness gate cannot pass vacuously.  Runs one operation per
workload (about 30 s in all):

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refcheck  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def outcome(request, tmp_path_factory):
    workload = WORKLOADS[request.param]
    state = workload.setup(SEED, tmp_path_factory.mktemp(request.param))
    return workload, state, workload.run(state), refcheck.load_reference(workload.name)


def check(outcome, result):
    workload, state, _, reference = outcome
    return refcheck.compare(reference, workload.digest(state, result))


def test_real_result_matches_reference(outcome):
    assert check(outcome, outcome[2]) == []


def test_other_seed_matches_same_reference(tmp_path):
    workload = WORKLOADS["group_balls"]
    state = workload.setup(SEED + 1, tmp_path)
    reference = refcheck.load_reference(workload.name)
    assert refcheck.compare(reference, workload.digest(state, workload.run(state))) == []


# ---------------------------------------------------------------------------
# perturbations, one set per workload


def _assembly_copy(result):
    asm = copy.copy(result["assembly"])
    asm.report = dict(asm.report)
    return {"assembly": asm, "agreements": list(result["agreements"])}


def thin_grid_perturbations(result):
    dropped = _assembly_copy(result)
    towers = dict(dropped["assembly"].towers)
    towers.pop(sorted(towers)[-1])
    dropped["assembly"].towers = towers
    dropped["assembly"].report["towers"] = len(towers)
    yield "dropped tower", dropped

    lipschitz = _assembly_copy(result)
    lipschitz["assembly"].report["measured_lipschitz"] += 1e-6
    yield "wrong Lipschitz value", lipschitz

    moved = _assembly_copy(result)
    assignment = dict(moved["assembly"].assignment)
    assignment[0], assignment[1023] = assignment[1023], assignment[0]
    moved["assembly"].assignment = assignment
    yield "point assigned to another tower", moved

    agreement = _assembly_copy(result)
    first = agreement["agreements"][0]
    agreement["agreements"][0] = dict(first, points_checked=first["points_checked"] + 1)
    yield "face agreement point count", agreement


def _with_space(holder, key, space):
    return dataclasses.replace(holder, **{key: space})


def _changed_space(space, i, j, delta):
    from coarsedim.metric_core import FiniteMetricSpace

    m = np.array(space.matrix)
    m[i, j] += delta
    m[j, i] += delta
    return FiniteMetricSpace(m, space.labels, space.provenance)


def group_balls_perturbations(result):
    for key in ("free2", "heisenberg", "z3"):
        changed = dict(result)
        ball = result[key]["ball"]
        changed[key] = dict(result[key], ball=_with_space(ball, "space",
                                                          _changed_space(ball.space, 0, 5, 1.0)))
        yield f"changed {key} matrix entry", changed

    hyper = dict(result)
    hspace = result["hyperbolization"]["hspace"]
    hyper["hyperbolization"] = dict(
        result["hyperbolization"],
        hspace=_with_space(hspace, "space", _changed_space(hspace.space, 3, 7, 1e-6)))
    yield "hyperbolization entry off by 1e-6", hyper

    lipschitz = dict(result)
    lipschitz["free_product"] = dict(result["free_product"], projection_lipschitz=1.5)
    yield "wrong Lipschitz value", lipschitz

    axioms = dict(result)
    axioms["z3"] = dict(result["z3"], axioms=dict(result["z3"]["axioms"], ok=False))
    yield "axiom check reported failure", axioms


def _cli_edit(result, command, edit):
    out = dict(result)
    doc = json.loads(result[command]["stdout"])
    edit(doc)
    out[command] = dict(result[command], stdout=json.dumps(doc))
    return out


def cli_session_perturbations(result):
    def matrix_entry(doc):
        doc["matrix"][0][1] += 1.0

    def drop_tower(doc):
        doc["per_simplex"].pop()
        doc["lambda_k_per_simplex"].pop()

    def lipschitz(doc):
        doc["measured_lipschitz"] += 1e-6

    def colors(doc):
        doc["colors"] += 1

    yield "changed matrix entry (warm ball)", _cli_edit(result, "group_ball_warm", matrix_entry)
    yield "dropped tower", _cli_edit(result, "hurewicz_run", drop_tower)
    yield "wrong Lipschitz value", _cli_edit(result, "hurewicz_run", lipschitz)
    yield "wrong color count", _cli_edit(result, "cover_solve", colors)
    failed = dict(result)
    failed["space_check"] = dict(result["space_check"], returncode=2)
    yield "non-zero exit", failed


PERTURBATIONS = {
    "thin_grid_assembly": thin_grid_perturbations,
    "group_balls": group_balls_perturbations,
    "cli_session": cli_session_perturbations,
}


def test_perturbed_results_are_rejected(outcome):
    workload, _, result, _ = outcome
    cases = list(PERTURBATIONS[workload.name](result))
    assert cases
    for label, perturbed in cases:
        assert check(outcome, perturbed), f"{workload.name}: check accepted {label}"
    assert check(outcome, result) == [], "perturbations must not touch the real result"


def test_float_tolerance_is_the_repository_tolerance():
    reference = {"exact": {}, "approx": {"x": 2.0, "m": np.zeros((2, 2))}}
    ok = {"exact": {}, "approx": {"x": 2.0 + 1e-12, "m": np.full((2, 2), 1e-12)}}
    bad = {"exact": {}, "approx": {"x": 2.0 + 1e-8, "m": np.full((2, 2), 1e-8)}}
    assert refcheck.compare(reference, ok) == []
    assert len(refcheck.compare(reference, bad)) == 2


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    """The last output line carries exactly the metrics BENCHMARK.json declares."""
    import subprocess

    root = HERE.parent
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[section]}
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "group_balls", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
