"""Benchmark two checkouts in alternating pairs and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py <parent-checkout> <change-checkout> --pr N

Pair k (k = 0 .. 9) runs ``python3 bench/run.py --workload W --seed S
--seconds 10 --trace 0`` once in each checkout, with seed
S = 1000 * N + 1 + k; the parent goes first in even pairs and the change
in odd ones.  Every workload of the change's ``BENCHMARK.json`` is run,
and the seconds per run and each metric's better direction come from it.

The JSON holds, per workload and end-to-end metric, every value and the
median, q1 and q3 (``statistics.quantiles``, inclusive) of each side, the
relative change of the medians, and the pairs in which the change is
better.  It also holds the seeds, both ``git rev-parse HEAD``s (null
outside a git checkout), ``os.cpu_count()``, the Python and numpy versions
and ``PYTHONDONTWRITEBYTECODE``.  It is written to ``BENCH_<N>.json`` in
the change checkout.  A run that fails or is not
``correct`` is kept and named in its pair; the script then exits 1.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def revision(checkout: Path):
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def numpy_version() -> str:
    done = subprocess.run([sys.executable, "-c",
                           "import numpy; print(numpy.__version__)"],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def bench_run(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """One ``bench/run.py`` run: its summary, or the failure."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"exit": done.returncode, "stderr": done.stderr[-2000:]}
    return {"exit": 0, **json.loads(lines[-1])}


def side_summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric: both sides' summaries and the pairs the change won."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        lower = metric["better"] == "lower"
        got = {side: [p[side]["metrics"][name]["value"] for p in pairs]
               for side in SIDES}
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(got["parent"], got["change"]))
        parent, change = (side_summary(got[side]) for side in SIDES)
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent": parent, "change": change,
                     "median_change": (change["median"] / parent["median"]
                                       - 1.0),
                     "pairs_won": won, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {
        "pr": args.pr,
        "command": f"python3 bench/run.py --workload W --seed S "
                   f"--seconds {seconds} --trace 0",
        "order": "parent first in even pairs, change first in odd pairs",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "revisions": {side: revision(path)
                      for side, path in checkouts.items()},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    bad = False
    seeds = [1000 * args.pr + 1 + k for k in range(PAIRS)]
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench_run(checkouts[side], workload, seed,
                                       seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(pair[side].get('metrics'))}",
                      file=sys.stderr)
            pairs.append(pair)
        ok = [p for p in pairs if all(p[s]["exit"] == 0 and p[s]["correct"]
                                      for s in SIDES)]
        bad |= len(ok) < len(pairs)
        report["workloads"][workload] = {
            "seeds": seeds,
            "failed_pairs": [p for p in pairs if p not in ok],
            "metrics": (summarize(ok, spec["end_to_end"]) if len(ok) > 1
                        else {}),
        }
    out = checkouts["change"] / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
