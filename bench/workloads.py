"""The benchmark workloads: the inputs each one makes from its seed and the
pcgrav CLI calls that form one round.

A plan is plain JSON, so the measured worker process needs nothing from
this module.  Paths in a plan are relative to the checkout root, which is
the worker's working directory.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("mass-study", "leibniz-algebra", "poincare-killing")

POINCARE_SCENARIO = "scenarios/poincare_schwarzschild.json"
EOM_SCENARIO = "scenarios/eom_schwarzschild.json"
POINCARE_ALGEBRA = "scenarios/poincare_algebra.json"
SO3, R3 = "scenarios/so3.json", "scenarios/r3.json"
SO3_VECTOR_ACTION = "scenarios/so3_vector_action.json"
SOURCES = (POINCARE_SCENARIO, EOM_SCENARIO, POINCARE_ALGEBRA, SO3, R3,
           SO3_VECTOR_ACTION)

MASS_RANGE = (0.5, 2.0)
MASS_DOCUMENTS = 3       # Schwarzschild documents per seed, plus one flat
ROUND_TRIP_MAPS = 2      # seeded so(3) actions for the exact round trip


def mass_document(mass: float, geometry: str) -> dict:
    """Spherical scenario at N = 33 with mass spheres at 8/12/16."""
    return {"scenario": "spherical", "geometry": geometry, "M": mass,
            "Lambda": 0.0, "grid": {"L": 20.0, "N": 33},
            "Ns": [17, 25, 33], "cutoff": {"r": 12.0, "R": 16.0},
            "radius_mode": "spatial", "radii": [8.0, 12.0, 16.0]}


def seeded_masses(seed: int) -> list:
    rng = random.Random(seed)
    return [round(rng.uniform(*MASS_RANGE), 6) for _ in range(MASS_DOCUMENTS)]


def adjoint_action_document(algebra: dict) -> dict:
    """alpha(x)(y) = [x, y], read straight off the bracket table."""
    rows = {}
    for item in algebra["brackets"]:
        rows.setdefault(item["i"], []).append(
            {"i": item["j"], "out": item["out"]})
    return {"action": [{"x": label, "rows": rows[label]}
                       for label in sorted(rows)]}


def _inverse(m):
    """Gauss-Jordan inverse of a small Fraction matrix (None if singular)."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        lead = a[col][col]
        a[col] = [x / lead for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def action_matrices(doc: dict, actor_labels, module_labels) -> dict:
    """{actor label: row-convention matrix} of an action document."""
    index = {lab: n for n, lab in enumerate(module_labels)}
    n = len(module_labels)
    mats = {x: [[Fraction(0)] * n for _ in range(n)] for x in actor_labels}
    for item in doc["action"]:
        for row in item.get("rows", ()):
            for entry in row.get("out", ()):
                mats[item["x"]][index[row["i"]]][index[entry["k"]]] = \
                    Fraction(entry["c"])
    return mats


def conjugated_action_document(base: dict, actor_labels, module_labels,
                               rng: random.Random) -> dict:
    """P M P^-1 for a random integer P: again an action on the abelian h."""
    n = len(module_labels)
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
             for _ in range(n)]
        p_inv = _inverse(p)
        if p_inv is not None:
            break
    mats = action_matrices(base, actor_labels, module_labels)
    action = []
    for x in actor_labels:
        m = _matmul(_matmul(p, mats[x]), p_inv)
        rows = [{"i": module_labels[i],
                 "out": [{"k": module_labels[k], "c": str(c)}
                         for k, c in enumerate(m[i]) if c != 0]}
                for i in range(n)]
        action.append({"x": x, "rows": [r for r in rows if r["out"]]})
    return {"action": action}


def _labels(doc: dict) -> list:
    return [b["label"] for b in doc["basis"]]


def _write(root: Path, path: Path, doc: dict) -> str:
    """Write a generated document; return its path relative to the root."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path.relative_to(root).as_posix()


def make_plan(workload: str, seed: int, root: Path, results: Path) -> dict:
    """Write the workload's generated inputs under ``results`` and return
    its plan: documents to parse at set-up, CLI calls per round (each with
    the check its output must pass), and run-level checks."""
    inputs = results / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    setup, ops, run_checks = [], [], {}

    if workload == "poincare-killing":
        setup.append({"kind": "scenario", "path": POINCARE_SCENARIO})
        ops.append({"argv": ["killing", "residuals", "--scenario",
                             POINCARE_SCENARIO],
                    "check": "killing", "params": {}})
    elif workload == "mass-study":
        docs = [(m, "schwarzschild") for m in seeded_masses(seed)]
        docs.append((0.0, "minkowski"))
        for n, (mass, geometry) in enumerate(docs):
            path = _write(root, inputs / f"mass_{n}.json",
                          mass_document(mass, geometry))
            setup.append({"kind": "scenario", "path": path})
            for command in ("adm", "komar"):
                ops.append({"argv": ["mass", command, "--scenario", path],
                            "check": f"mass_{command}",
                            "params": {"M": mass, "geometry": geometry}})
    elif workload == "leibniz-algebra":
        # the Leibniz ladder, then the exact dgla actions: no generators,
        # no geometry, no static fields
        setup.append({"kind": "scenario", "path": EOM_SCENARIO})
        ops.append({"argv": ["convergence", "--scenario", EOM_SCENARIO,
                             "--Ns", "17,25,33", "--quantities", "leibniz"],
                    "check": "leibniz", "params": {}})
        poincare = json.loads((root / POINCARE_ALGEBRA).read_text())
        adjoint = _write(root, inputs / "poincare_adjoint_action.json",
                         adjoint_action_document(poincare))
        setup += [{"kind": "dgla", "path": POINCARE_ALGEBRA},
                  {"kind": "action", "path": SO3_VECTOR_ACTION,
                   "g": SO3, "h": R3},
                  {"kind": "action", "path": adjoint,
                   "g": POINCARE_ALGEBRA, "h": POINCARE_ALGEBRA}]
        ops += [{"argv": ["algebra", "check", POINCARE_ALGEBRA],
                 "check": "algebra_check",
                 "params": {"algebra": POINCARE_ALGEBRA}},
                {"argv": ["algebra", "action", SO3, R3, SO3_VECTOR_ACTION],
                 "check": "algebra_action",
                 "params": {"g": SO3, "h": R3, "alpha": SO3_VECTOR_ACTION}},
                {"argv": ["algebra", "action", POINCARE_ALGEBRA,
                          POINCARE_ALGEBRA, adjoint],
                 "check": "algebra_action",
                 "params": {"g": POINCARE_ALGEBRA, "h": POINCARE_ALGEBRA,
                            "alpha": adjoint}}]
        so3 = _labels(json.loads((root / SO3).read_text()))
        r3 = _labels(json.loads((root / R3).read_text()))
        base = json.loads((root / SO3_VECTOR_ACTION).read_text())
        rng = random.Random(seed)
        run_checks["round_trip"] = [
            _write(root, inputs / f"so3_action_{n}.json",
                   conjugated_action_document(base, so3, r3, rng))
            for n in range(ROUND_TRIP_MAPS)]
        run_checks.update(g=SO3, h=R3, plus_variant=SO3_VECTOR_ACTION)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    for op in ops:
        # reports go to a fresh directory per call; algebra takes no --out
        op["out"] = op["argv"][0] != "algebra"
    return {"workload": workload, "seed": seed, "setup": setup, "ops": ops,
            "run_checks": run_checks}
