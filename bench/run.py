"""pcgrav benchmark: one workload of the pcgrav CLI, measured and checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pcgrav checkout.  The workload's CLI calls run in
one fresh worker process (``bench/worker.py``) that imports pcgrav from
``src``; every call's exit code and output are checked (``bench/checks.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Reports, generated inputs and the trace land in
``bench/results/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_op, check_run
from workloads import SOURCES, WORKLOADS, make_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 4          # set-up-only processes per run, plus the worker's
DEADLINE_S = 170.0        # a run ends well inside 180 s or fails
COUNT_KEYS = ("calls", "bytes", "repeat_calls", "points")


class BenchError(RuntimeError):
    """A worker failed or ran out of time."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: the worker is the only busy process on two cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PCGRAV_OUT", None)
    return env


def run_worker(plan_path: Path, result_path: Path, deadline: float,
               *flags) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    log = result_path.with_suffix(".log")
    with open(log, "w") as stderr:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(plan_path),
                 str(result_path), *flags],
                cwd=ROOT, env=worker_env(), stdout=stderr, stderr=stderr,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n"
                         + log.read_text()[-2000:])
    return json.loads(result_path.read_text())


def layer_value(table: dict, name: str):
    span, key = name.rsplit(".", 1)
    value = table.get(span, {}).get(key, 0)
    return int(value) if key in COUNT_KEYS else float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("BENCHMARK.json", "src/pcgrav/cli.py") + SOURCES
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a pcgrav checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    results = RESULTS / args.workload
    shutil.rmtree(results, ignore_errors=True)
    results.mkdir(parents=True)
    plan = make_plan(args.workload, args.seed, ROOT, results)
    plan_path = results / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))

    try:
        # first import compiles bytecode and warms the file cache: unmeasured
        run_worker(plan_path, results / "warmup.json", deadline, "--probe")
        setups = [] if args.trace else [
            run_worker(plan_path, results / f"probe{n}.json", deadline,
                       "--probe")["setup_s"] for n in range(SETUP_PROBES)]
        outcome = run_worker(plan_path, results / "worker.json", deadline,
                             "--seconds", str(args.seconds),
                             *(["--trace"] if args.trace else []))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failed, problems = 0, []
    for n, records in enumerate(outcome["rounds"]):
        for op, record in zip(plan["ops"], records):
            found = check_op(op, record, records, ROOT)
            if found:
                failed += 1
                problems += [f"round {n} call {record['op']}: {p}"
                             for p in found]
    run_problems = check_run(plan, outcome["library"], ROOT)
    problems += run_problems
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)

    round_s = [sum(r["seconds"] for r in records)
               for records in outcome["rounds"]]
    if args.trace:
        for error in outcome["trace"]["hook_errors"]:
            print(f"trace counter lost: {error}", file=sys.stderr)
        table = outcome["trace"]["table"]
        values = {m["name"]: layer_value(table, m["name"])
                  for m in spec["per_layer"]
                  if m["name"] != "trace.overhead_s"}
        values["trace.overhead_s"] = (round_s[-1]
                                      - statistics.median(round_s[:-1]))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {"wall_s": statistics.median(round_s),
                  "peak_rss_mb": outcome["peak_rss_mb"],
                  "setup_s": statistics.median(setups + [outcome["setup_s"]])}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    summary = {"correct": failed == 0 and not run_problems,
               "attempted": sum(len(r) for r in outcome["rounds"]),
               "failed": failed,
               "metrics": {name: {"value": values[name], "unit": unit}
                           for name, unit in units.items()}}
    (results / "summary.json").write_text(json.dumps(
        {**summary, "rounds_s": round_s, "setup_samples_s": setups,
         "problems": problems}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
