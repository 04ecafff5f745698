"""One measured pcgrav process: set-up, then whole rounds of CLI calls.

    python3 bench/worker.py PLAN RESULT [--probe] [--seconds S] [--trace]

Run from the checkout root with ``src`` first on the path.  Set-up is the
import of ``pcgrav.cli`` plus parsing and validating the plan's input
documents.  ``--probe`` stops after set-up.  Otherwise the worker runs
whole rounds of the plan's CLI calls until ``--seconds`` have passed (at
least one round), each call into a fresh report directory, and records exit
codes, output and wall times, and its own peak resident set.  ``--trace``
then adds exactly one traced round, so that call counts repeat from run to
run, and writes the trace beside the result.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter


def parse_inputs(plan: dict) -> None:
    from pcgrav.algebras import action_from_json, dgla_from_json
    from pcgrav.scenarios import load_scenario

    def dgla(path):
        return dgla_from_json(json.loads(Path(path).read_text()))

    for item in plan["setup"]:
        if item["kind"] == "scenario":
            load_scenario(item["path"])
        elif item["kind"] == "dgla":
            dgla(item["path"])
        else:
            action_from_json(json.loads(Path(item["path"]).read_text()),
                             dgla(item["g"]), dgla(item["h"]))


def library_checks(plan: dict):
    """Exact round trip of each seeded action map, and the antisymmetry
    witnesses of the naive + variant; the parent judges both."""
    run_checks = plan["run_checks"]
    if not run_checks:
        return None
    from pcgrav.algebras import action_from_json, dgla_from_json
    from pcgrav.graded import (build_action_dgla, check_dgla,
                               extract_action_map)

    def load(path):
        return json.loads(Path(path).read_text())

    g = dgla_from_json(load(run_checks["g"]))
    h = dgla_from_json(load(run_checks["h"]))
    round_trip = []
    for path in run_checks["round_trip"]:
        back = extract_action_map(build_action_dgla(
            action_from_json(load(path), g, h)))
        round_trip.append([[[str(c) for c in row] for row in m]
                           for m in back.matrices])
    alpha = action_from_json(load(run_checks["plus_variant"]), g, h)
    report = check_dgla(build_action_dgla(alpha, plus_variant=True).total)
    return {"round_trip": round_trip,
            "plus_witnesses": [list(v.witness) for v in report.violations
                               if v.axiom == "antisymmetry"]}


def run_round(cli, plan: dict, results: Path, label: str) -> list:
    records = []
    for n, op in enumerate(plan["ops"]):
        argv = list(op["argv"])
        out = None
        if op["out"]:
            out = (results / label / f"op{n}").as_posix()
            argv += ["--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed call, not a lost run
                code = None
                traceback.print_exc()
            seconds = perf_counter() - t0
        records.append({"op": n, "argv": argv, "exit": code,
                        "seconds": seconds, "stdout": stdout.getvalue(),
                        "stderr": stderr.getvalue(), "out": out})
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    results = Path(args.result).parent

    t0 = perf_counter()
    import pcgrav
    from pcgrav import cli
    parse_inputs(plan)
    setup_s = perf_counter() - t0
    src = Path("src").resolve()
    if Path(pcgrav.__file__).resolve().parent.parent != src:
        print(f"pcgrav imported from {pcgrav.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if args.probe:
        Path(args.result).write_text(json.dumps(result))
        return 0

    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        rounds.append(run_round(cli, plan, results, f"round{len(rounds)}"))
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(pcgrav)
        try:
            parse_inputs(plan)
            rounds.append(run_round(cli, plan, results, "traced"))
            result["library"] = library_checks(plan)
        finally:
            tracer.uninstall()
        trace = tracer.dump()
        (results / "trace.json").write_text(json.dumps(trace))
        result["trace"] = {key: trace[key] for key in
                           ("table", "counter_s", "hook_errors")}
    else:
        result["library"] = library_checks(plan)
    result["rounds"] = rounds
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
