"""Command-line entry point.

Subcommands:

    pcgrav algebra check <algebra.json>
    pcgrav algebra action <g.json> <h.json> <alpha.json>
    pcgrav pc action --scenario <file>
    pcgrav pc eom --scenario <file>
    pcgrav killing residuals --scenario <file>
    pcgrav mass adm|komar --scenario <file> [--radii 8,12,16]
    pcgrav convergence --scenario <file> [--quantities ...] [--Ns 17,25,33]

The algebra commands print their reports.  A scenario command loads its
scenario, takes its body from one study of :mod:`pcgrav.scenarios` and
hands it to ``_write``, which writes the report and CSV tables and returns
the verdict's exit code (``VERDICT_CODES``); no verdict is decided here.
``killing residuals`` and ``convergence`` hand their study the map of
:func:`worker_map`, and ``convergence`` the Leibniz ladder as a callable.
Exit codes: 0 all verdicts pass, 1 any fail, 2 usage/parse error, 3
inconclusive (refinement needed).  Reports land in --out, the PCGRAV_OUT
env var, or ./pcgrav-reports.  --threads (default: the CPUs this process
may use when the parser is first built) sizes the worker pools and is
recorded in the manifest; each item runs in a fixed order of operations
and results are assembled in item order, so numeric report bodies are
byte-identical across --threads settings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import fields as F
from .algebras import (AlgebraFormatError, action_from_json, dgla_from_json)
from .graded import StructureError, build_action_dgla, check_dgla, check_exactness
from .grid import RADIUS_MODES
from .report import RunManifest, write_csv, write_report
from .scenarios import (Scenario, ScenarioError, convergence_csv_rows,
                        convergence_study, load_scenario, mass_study, pc_study,
                        residual_csv_rows, run_scenario)

USAGE_ERROR, FAIL, OK, INCONCLUSIVE = 2, 1, 0, 3

VERDICT_CODES = {"pass": OK, "fail": FAIL, "inconclusive": INCONCLUSIVE}


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise AlgebraFormatError(f"cannot read {path}: {exc}") from None


def _write(args, scenario: Scenario, command: str, body: dict,
           tables=()) -> int:
    """Write ``body``, with the scenario echoed, as the report of
    ``command`` and each ``(name, header, rows)`` of ``tables`` as a CSV;
    return the exit code of the body's verdict."""
    grid = {"L": scenario.half_width, "N": scenario.points,
            "r": scenario.cutoff_inner, "R": scenario.cutoff_outer,
            "radius_mode": scenario.radius_mode}
    manifest = RunManifest(command=command,
                           scenario_hash=scenario.source_hash, grid=grid,
                           thresholds=scenario.thresholds,
                           threads=args.threads)
    out = Path(args.out or os.environ.get("PCGRAV_OUT", "pcgrav-reports"))
    write_report(out, command.replace(" ", "_"), manifest,
                 {"scenario": scenario.echo(), **body})
    for name, header, rows in tables:
        write_csv(out, name, header, rows)
    return VERDICT_CODES[body["verdict"]]


def _load(args) -> Scenario:
    """The scenario of --scenario, with --Ns, --radii and --radius-mode as
    the document keys they replace."""
    given = {"Ns": args.ns, "radii": getattr(args, "radii", None),
             "radius_mode": args.radius_mode}
    return load_scenario(args.scenario, **{
        key: value for key, value in given.items() if value is not None})


def worker_map(threads: int):
    """The map of a command's independent items (sweep stages, Leibniz t
    ranges): the builtin ``map`` at one thread, else a map over argument
    lists that forks a pool of ``min(threads, items)`` workers for its call,
    returns the results in item order and joins the pool before it returns
    or raises (an item's exception, or ``BrokenProcessPool``)."""
    if threads == 1:
        return map

    def run(fn, *columns):
        # imported here, so commands that never fork skip it; forked, as
        # spawned workers would import numpy and pcgrav again
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(min(threads, len(columns[0])),
                                 mp_context=fork) as pool:
            return list(pool.map(fn, *columns))
    return run


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def cmd_algebra(args) -> int:
    if args.algebra_command == "check":
        dgla = dgla_from_json(_load_json(args.file))
        report = check_dgla(dgla)
        print(report)
        return OK if report.passed else FAIL
    # action: build g (+) h and check everything
    g = dgla_from_json(_load_json(args.g))
    h = dgla_from_json(_load_json(args.h))
    alpha = action_from_json(_load_json(args.alpha), g, h)
    try:
        structure = build_action_dgla(alpha)
    except StructureError as exc:
        print(f"action rejected: {exc}")
        return FAIL
    exact_report = check_exactness(structure)
    print(structure.total_report)
    print(exact_report)
    return OK if exact_report.passed else FAIL


# ---------------------------------------------------------------------------
# pc, killing, mass: one study each
# ---------------------------------------------------------------------------

def cmd_pc(args) -> int:
    scenario = _load(args)
    return _write(args, scenario, f"pc {args.pc_command}",
                  pc_study(scenario, args.pc_command))


def cmd_killing(args) -> int:
    scenario = _load(args)
    body = run_scenario(scenario, worker_map(args.threads))
    return _write(args, scenario, "killing residuals", body, [
        (f"residuals_{geometry}",
         *residual_csv_rows(section, scenario.generators))
        for geometry, section in body.get("sections", {}).items()])


def cmd_mass(args) -> int:
    scenario = _load(args)
    return _write(args, scenario, f"mass {args.mass_command}",
                  mass_study(scenario, parts=(args.mass_command,)))


# ---------------------------------------------------------------------------
# convergence: the Leibniz ladder, handed to one study
# ---------------------------------------------------------------------------

RING = 5     # t slices the t stencil reads: two on each side


def leibniz_residual_norms(scenario: Scenario, threads: int):
    """Graded Leibniz defect of d on seeded random smooth Lambda^2 fields,
    at each N of ``scenario.resolutions``.

    max |d[a,b] - ([da,b] - [a,db])| over the grid, streamed over t: each
    N splits into ``min(threads, N)`` contiguous t ranges
    (:func:`_leibniz_block`), and the max over their maxima is the max over
    the grid.  One :func:`worker_map` call runs every (N, t range) item.
    """
    ranges = [(n, n * w // k, n * (w + 1) // k) for n in scenario.resolutions
              for k in [min(threads, n)] for w in range(k)]
    tops = list(worker_map(threads)(
        functools.partial(_leibniz_block, scenario), *zip(*ranges)))
    return ([float(np.max([top for (m, *_), top in zip(ranges, tops)
                           if m == n])) for n in scenario.resolutions],
            [scenario.grid(n).spacing for n in scenario.resolutions])


def _leibniz_block(scenario: Scenario, n: int, t0: int, t1: int):
    """Max of the Leibniz residual over t slices ``t0 <= t < t1`` at N = n.

    A block seeds its own a and b: one amplitude per coordinate wave for
    each component, a then b, drawn in that order; ``coef[mu]`` has the
    grid axes of a ring slot, and ``waves[mu]`` is the wave along axis mu.
    Rings hold the slices of a, b and [a, b] within two of the current t.
    Each slice is built once, and a block also builds the two slices past
    each end of its range that the t stencil reads.  The ring of [a, b]
    holds the arrays ``wedge`` returns, and the residual is reduced in
    place.
    """
    grid = scenario.grid(n)
    amps = np.random.default_rng(20260808).normal(size=(2, 4, 6, 4))
    coef = np.moveaxis(amps, -1, 0)[..., None, None, None]
    k = np.pi / scenario.half_width
    waves = [np.sin(k * grid.coordinate(mu) + 0.3 * mu) for mu in range(4)]
    nodes = grid.shape[1:]
    rings = np.empty((2, RING, 4, 6) + nodes)       # a, b
    ring_a, ring_b = rings
    ring_ab = [np.empty((6, 6) + nodes)] * RING     # placeholders, unread

    def build(t):
        # each wave depends on one coordinate: sampled along its axis
        partial = ((0 + coef[0] * waves[0][t]) + coef[1] * waves[1][0]
                   + coef[2] * waves[2][0])
        np.add(partial, coef[3] * waves[3][0], out=rings[:, t % RING])
        ab = F.wedge(at(ring_a, t, 1), at(ring_b, t, 1), "bracket")
        ring_ab[t % RING] = ab.data[:, :, 0]

    def at(ring, t, degree):
        return F.RingSlice.of(ring, grid, t, degree, 2)

    for t in range(max(t0 - 2, 0), min(t0 + 2, n)):
        build(t)
    top = float("-inf")
    for t in range(t0, t1):
        if t + 2 < n:
            build(t + 2)
        a, b = at(ring_a, t, 1), at(ring_b, t, 1)
        residual = (F.wedge(F.ext_d(a), b, "bracket").data
                    - F.wedge(a, F.ext_d(b), "bracket").data)
        np.subtract(F.ext_d(at(ring_ab, t, 2)).data, residual, out=residual)
        top = np.maximum(top, np.abs(residual, out=residual).max())
    return top


def cmd_convergence(args) -> int:
    scenario = _load(args)
    body = convergence_study(
        scenario, args.quantities or ["torsion", "einstein"],
        lambda: leibniz_residual_norms(scenario, args.threads),
        worker_map(args.threads))
    return _write(args, scenario, "convergence", body,
                  [("convergence", *convergence_csv_rows(body))])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _thread_count(text):
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return count


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _float_list(text):
    return [float(x) for x in text.split(",") if x]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcgrav",
        description="grid gravity lab: exact graded algebra checks, "
                    "field-equation residuals, Killing scenarios, masses")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=_thread_count,
                       default=len(os.sched_getaffinity(0)),
                       help="worker processes for sweep items and Leibniz "
                            "t ranges (default: the CPUs this process may "
                            "use); results do not depend on it")
        p.add_argument("--radius-mode", dest="radius_mode",
                       choices=RADIUS_MODES, default=None)
        p.add_argument("--Ns", dest="ns", type=_int_list, default=None)

    algebra = sub.add_parser("algebra", help="exact dgla axiom checking")
    algebra_sub = algebra.add_subparsers(dest="algebra_command", required=True)
    check = algebra_sub.add_parser("check")
    check.add_argument("file")
    act = algebra_sub.add_parser("action")
    act.add_argument("g")
    act.add_argument("h")
    act.add_argument("alpha")

    pc = sub.add_parser("pc", help="action value and field-equation residuals")
    pc_sub = pc.add_subparsers(dest="pc_command", required=True)
    for name in ("action", "eom"):
        common(pc_sub.add_parser(name))

    killing = sub.add_parser("killing", help="Killing-enforcement scenarios")
    killing_sub = killing.add_subparsers(dest="killing_command", required=True)
    common(killing_sub.add_parser("residuals"))

    mass = sub.add_parser("mass", help="surface-integral mass observables")
    mass_sub = mass.add_subparsers(dest="mass_command", required=True)
    for name in ("adm", "komar"):
        p = mass_sub.add_parser(name)
        common(p)
        p.add_argument("--radii", type=_float_list, default=None)

    conv = sub.add_parser("convergence", help="slope tables over resolutions")
    common(conv)
    conv.add_argument("--quantities", nargs="*", default=None,
                      help="torsion einstein leibniz symmetry:<GEN> extra:<GEN>")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    handlers = {"algebra": cmd_algebra, "pc": cmd_pc, "killing": cmd_killing,
                "mass": cmd_mass, "convergence": cmd_convergence}
    try:
        return handlers[args.command](args)
    except (AlgebraFormatError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
