"""Run the scenario commands in two checkouts and diff what they write.

    python3 tools/compare_outputs.py <before-checkout> <after-checkout>

Each checkout runs ``pc action``, ``pc eom``, ``mass adm``, ``mass komar``,
``killing residuals`` and ``convergence`` (torsion, einstein, leibniz,
symmetry:K1, extra:P1, extra:L3) with ``--threads 2``, whose sweep items
and Leibniz t ranges run on a worker pool, and ``killing residuals``,
``convergence`` without leibniz and ``convergence --quantities leibniz``
with ``--threads 1``, which run every item in the calling process, on each
of the four shipped scenario documents, in both radius modes: 72 runs.
Then the algebra commands: ``algebra check`` on ``so3.json``, ``r3.json``
and ``poincare_algebra.json`` and on a failing so(3) document, and
``algebra action`` on ``so3_vector_action.json``, on the Poincare adjoint
action and on a rejected so(3) action: 79 runs a side.  The failing,
adjoint and rejected documents are written into each working directory's
``generated`` from the shipped ones.  A run imports pcgrav from its
checkout's ``src`` under ``python -W ignore``, in a fresh working
directory where ``scenarios`` links to the checkout's, so both sides pass
the same argv.

Exit codes, stdout, stderr, CSV tables and report files must agree byte
for byte; a report's manifest ``timestamp`` is left out.  Each run that
differs is named with what differs, and the script exits 1 if any does.
Each run's line also gives its peak RSS on both sides (``ru_maxrss`` of
the rusage ``os.wait4`` returns, which covers the children the run
waited for), for reading only: it is not compared.  Standard library
only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = ("eom_schwarzschild.json", "minkowski_lambda1.json",
             "poincare_schwarzschild.json", "spherical_schwarzschild.json")
COMMANDS = {
    "pc_action": ("pc", "action"), "pc_eom": ("pc", "eom"),
    "mass_adm": ("mass", "adm"), "mass_komar": ("mass", "komar"),
    "killing_residuals": ("killing", "residuals"),
    "convergence": ("convergence", "--quantities", "torsion", "einstein",
                    "leibniz", "symmetry:K1", "extra:P1", "extra:L3"),
    "killing_residuals_threads1": ("killing", "residuals"),
    "convergence_threads1": ("convergence", "--quantities", "torsion",
                             "einstein", "symmetry:K1", "extra:P1",
                             "extra:L3"),
    "convergence_leibniz_threads1": ("convergence", "--quantities", "leibniz"),
}
THREADS = {name: "1" for name in COMMANDS if name.endswith("_threads1")}
MODES = ("spatial", "4d")
SO3, R3 = "scenarios/so3.json", "scenarios/r3.json"
POINCARE = "scenarios/poincare_algebra.json"
ALGEBRA_RUNS = {
    "algebra_check_so3": ("check", SO3),
    "algebra_check_r3": ("check", R3),
    "algebra_check_poincare": ("check", POINCARE),
    "algebra_check_failing_so3": ("check", "generated/failing_so3.json"),
    "algebra_action_so3_vector": ("action", SO3, R3,
                                  "scenarios/so3_vector_action.json"),
    "algebra_action_poincare_adjoint": (
        "action", POINCARE, POINCARE, "generated/poincare_adjoint.json"),
    "algebra_action_rejected_so3": ("action", SO3, R3,
                                    "generated/rejected_so3_action.json"),
}


def runs():
    """(label, argv) of every run; the label names its output directory."""
    for scenario in SCENARIOS:
        for mode in MODES:
            for name, command in COMMANDS.items():
                label = f"{scenario[:-5]}_{mode}_{name}"
                yield label, [*command, "--scenario", f"scenarios/{scenario}",
                              "--radius-mode", mode,
                              "--threads", THREADS.get(name, "2"),
                              "--out", f"out/{label}"]
    for label, argv in ALGEBRA_RUNS.items():
        yield label, ["algebra", *argv]


def write_generated(work: Path):
    """The documents of the algebra runs that no checkout ships: the
    Poincare adjoint action, alpha(x)(y) = [x, y] read off the bracket
    table; so(3) with [L1, L2] doubled (one orientation only); and the
    vector action with one entry doubled."""
    def shipped(name):
        return json.loads((work / "scenarios" / name).read_text())

    rows = {}
    for item in shipped("poincare_algebra.json")["brackets"]:
        rows.setdefault(item["i"], []).append(
            {"i": item["j"], "out": item["out"]})
    adjoint = {"action": [{"x": x, "rows": rows[x]} for x in sorted(rows)]}
    failing = shipped("so3.json")
    failing["brackets"][0]["out"][0]["c"] = "2"
    rejected = shipped("so3_vector_action.json")
    rejected["action"][0]["rows"][0]["out"][0]["c"] = "2"
    (work / "generated").mkdir()
    for name, doc in (("poincare_adjoint.json", adjoint),
                      ("failing_so3.json", failing),
                      ("rejected_so3_action.json", rejected)):
        (work / "generated" / name).write_text(json.dumps(doc, indent=2))


def outputs(checkout: Path, work: Path, label: str, argv):
    """What one run left behind, by name (exit code, streams and files),
    and its peak RSS in MB."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryFile("w+") as stdout, \
            tempfile.TemporaryFile("w+") as stderr:
        run = subprocess.Popen(
            [sys.executable, "-W", "ignore", "-m", "pcgrav.cli", *argv],
            cwd=work, env=env, stdout=stdout, stderr=stderr, text=True)
        _, status, usage = os.wait4(run.pid, 0)
        run.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        found = {"exit": str(run.returncode), "stdout": stdout.read(),
                 "stderr": stderr.read()}
    out = work / "out" / label
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        text = path.read_text()
        if path.suffix == ".json":
            report = json.loads(text)
            report.get("manifest", {}).pop("timestamp", None)
            text = json.dumps(report, sort_keys=True, indent=2)
        found[path.name] = text
    return found, usage.ru_maxrss / 1024


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_outputs.py <before-checkout> <after-checkout>",
              file=sys.stderr)
        return 2
    checkouts = [Path(arg).resolve() for arg in args]
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        works = []
        for side, checkout in zip(("before", "after"), checkouts):
            work = Path(tmp) / side
            work.mkdir()
            (work / "scenarios").symlink_to(checkout / "scenarios")
            write_generated(work)
            works.append(work)
        every = list(runs())
        for label, run_argv in every:
            (before, rss0), (after, rss1) = (
                outputs(checkout, work, label, run_argv)
                for checkout, work in zip(checkouts, works))
            rss = f"peak RSS {rss0:.1f} -> {rss1:.1f} MB"
            parts = sorted(key for key in before.keys() | after.keys()
                           if before.get(key) != after.get(key))
            if parts:
                differ += 1
                print(f"DIFFER {label}: {', '.join(parts)}; {rss}")
            else:
                print(f"same   {label} (exit {before['exit']}, "
                      f"{len(before) - 3} files; {rss})")
    print(f"{len(every)} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
