"""Self-test of the output checks: each one must reject a corrupted output.

    python3 bench/selftest.py

Runs one round of every workload (about two minutes, 1.7 GB peak), checks
that the real outputs pass, then feeds the checks corrupted copies: a
flipped verdict, perturbed norms and slopes, an ADM value off by 2%, and an
action document with one coefficient flipped, which the CLI must refuse
with exit code 1.  Exits 0 only if every corruption is caught.  A check
that cannot fail measures nothing.
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

from checks import check_op, check_run
from run import RESULTS, ROOT, run_worker
from workloads import SO3, SO3_VECTOR_ACTION, WORKLOADS, make_plan

SEED = 1


def one_round(workload: str, plan_edit=None) -> tuple:
    results = RESULTS / "selftest" / workload
    shutil.rmtree(results, ignore_errors=True)
    results.mkdir(parents=True)
    plan = make_plan(workload, SEED, ROOT, results)
    if plan_edit:
        plan_edit(plan, results)
    plan_path = results / "plan.json"
    plan_path.write_text(json.dumps(plan))
    outcome = run_worker(plan_path, results / "worker.json",
                         time.monotonic() + 170.0)
    return plan, outcome["rounds"][0], outcome, results


def corrupted(record, report: str, mutate, where: Path) -> dict:
    """Copy of a call's report directory with ``mutate`` applied to the
    body, in the file and in the echoed stdout alike."""
    shutil.rmtree(where, ignore_errors=True)
    shutil.copytree(record["out"], where)
    path = where / f"{report}.json"
    doc = json.loads(path.read_text())
    mutate(doc["body"])
    path.write_text(json.dumps(doc))
    return {**record, "out": str(where), "stdout": json.dumps(doc["body"])}


def expect(label: str, problems: list, failures: list) -> None:
    if problems:
        print(f"caught    {label}: {problems[0]}")
    else:
        print(f"MISSED    {label}")
        failures.append(label)


def main() -> int:
    failures = []
    rounds = {}
    serial = itertools.count()
    for workload in WORKLOADS:
        plan, records, outcome, results = one_round(workload)
        problems = [p for op, r in zip(plan["ops"], records)
                    for p in check_op(op, r, records, ROOT)]
        problems += check_run(plan, outcome["library"], ROOT)
        if problems:
            print(f"real outputs of {workload} fail: {problems[:3]}")
            failures.append(f"{workload} real outputs")
        rounds[workload] = (plan, records, results, outcome["library"])

    def case(workload, index, report, mutate, label):
        plan, records, results, _ = rounds[workload]
        bad = corrupted(records[index], report, mutate,
                        results / f"corrupt{next(serial)}")
        found = check_op(plan["ops"][index], bad,
                         records[:index] + [bad] + records[index + 1:], ROOT)
        expect(f"{workload}: {label}", found, failures)

    def exterior(family, name):
        return lambda b: b["sections"]["schwarzschild"][family][name]

    def flip_overall(b):
        b["verdict"] = "fail"

    def flip_generator(b):
        exterior("symmetry_residuals", "P1")(b)["verdict"] = "pass"

    def scale_norm(b):
        exterior("symmetry_residuals", "P1")(b)["norms"][-1] *= 1.001

    def shift_slope(b):
        exterior("extra_eom_terms", "L1")(b)["slope"] *= 1.000001

    case("poincare-killing", 0, "killing_residuals", flip_overall,
         "overall verdict flipped")
    case("poincare-killing", 0, "killing_residuals", flip_generator,
         "P1 verdict flipped to pass")
    case("poincare-killing", 0, "killing_residuals", scale_norm,
         "final P1 norm +0.1%")
    case("poincare-killing", 0, "killing_residuals", shift_slope,
         "L1 extra-term slope +1e-6")

    # every P1 norm +1%, in the CSV too: slope, verdicts and the CSV still
    # agree, so only the closed form can catch it
    def scale_ladder(b):
        entry = exterior("symmetry_residuals", "P1")(b)
        entry["norms"] = [v * 1.01 for v in entry["norms"]]

    plan, records, results, _ = rounds["poincare-killing"]
    bad = corrupted(records[0], "killing_residuals", scale_ladder,
                    results / f"corrupt{next(serial)}")
    table = Path(bad["out"]) / "residuals_schwarzschild.csv"
    rows = [line.split(",") for line in table.read_text().splitlines()]
    for row in rows:
        if row[0] == "P1":
            row[1:-2] = [repr(float(v) * 1.01) for v in row[1:-2]]
    table.write_text("\n".join(",".join(row) for row in rows) + "\n")
    expect("poincare-killing: every P1 norm +1%, CSV alike",
           check_op(plan["ops"][0], bad, [bad], ROOT), failures)

    def leibniz(b):
        return b["quantities"]["leibniz"]

    case("leibniz-algebra", 0, "convergence",
         lambda b: leibniz(b)["norms"].__setitem__(
             1, leibniz(b)["norms"][1] * 1.01), "middle norm +1%")
    case("leibniz-algebra", 0, "convergence",
         lambda b: leibniz(b).__setitem__("slope", leibniz(b)["slope"] + 1e-6),
         "slope +1e-6")

    def adm_off(b):
        b["values"][0] *= 1.02

    case("mass-study", 0, "mass_adm", adm_off, "ADM at rho = 8 off by 2%")
    case("mass-study", 1, "mass_komar", lambda b: b.update(verdict="fail"),
         "Komar verdict flipped")

    # an action document with one coefficient flipped must exit 1
    def flip_coefficient(plan, results):
        plan["ops"] = [op for op in plan["ops"] if op["argv"][0] == "algebra"]
        doc = json.loads((ROOT / SO3_VECTOR_ACTION).read_text())
        entry = doc["action"][0]["rows"][0]["out"][0]
        entry["c"] = str(-int(entry["c"]))
        path = results / "inputs" / "so3_vector_action_flipped.json"
        path.write_text(json.dumps(doc))
        flipped = path.relative_to(ROOT).as_posix()
        for op in plan["ops"]:
            if op["argv"][-1] == SO3_VECTOR_ACTION and op["argv"][2] == SO3:
                op["argv"][-1] = op["params"]["alpha"] = flipped

    plan, records, _, _ = one_round("leibniz-algebra", flip_coefficient)
    index = next(n for n, op in enumerate(plan["ops"])
                 if op["argv"][-1].endswith("_flipped.json"))
    code = records[index]["exit"]
    print(f"{'caught' if code == 1 else 'MISSED':9s} leibniz-algebra: flipped "
          f"coefficient exits {code} (want 1)")
    if code != 1:
        failures.append("flipped coefficient exit code")
    expect("leibniz-algebra: flipped coefficient fails its call check",
           check_op(plan["ops"][index], records[index], records, ROOT),
           failures)

    plan, _, _, library = rounds["leibniz-algebra"]
    bad = copy.deepcopy(library)
    row = bad["round_trip"][0][0][0]
    row[0] = str(Fraction(row[0]) + 1)
    expect("leibniz-algebra: round-tripped matrix entry changed",
           check_run(plan, bad, ROOT), failures)
    bad = copy.deepcopy(library)
    bad["plus_witnesses"] = [["g.L1", "g.L2"]]
    expect("leibniz-algebra: plus-variant witness without an h element",
           check_run(plan, bad, ROOT), failures)

    print("self-test", "FAILED: " + ", ".join(failures) if failures
          else "passed: every corruption was caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
