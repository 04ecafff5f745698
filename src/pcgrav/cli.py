"""Command-line entry point.

Subcommands:

    pcgrav algebra check <algebra.json>
    pcgrav algebra action <g.json> <h.json> <alpha.json>
    pcgrav pc action --scenario <file>
    pcgrav pc eom --scenario <file>
    pcgrav killing residuals --scenario <file>
    pcgrav mass adm|komar --scenario <file> [--radii 8,12,16]
    pcgrav convergence --scenario <file> [--quantities ...] [--Ns 17,25,33]

Exit codes: 0 all verdicts pass, 1 any fail, 2 usage/parse error,
3 inconclusive (refinement needed); ``VERDICT_CODES`` maps a verdict to
its code.  Reports land in --out, the PCGRAV_OUT env var, or
./pcgrav-reports.  --threads (default: the CPUs this process may use) is
the number of contiguous t ranges the Leibniz ladder splits into, each run
in a worker process of a pool that lives for one ladder, and is recorded in
the manifest; each range runs in a fixed order, so numeric report bodies
are byte-identical across --threads settings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import fields as F
from .action import (action_pc, einstein_residual, extra_eom_term,
                     standard_test_form, torsion_residual)
from .algebras import (AlgebraFormatError, action_from_json, dgla_from_json)
from .graded import StructureError, build_action_dgla, check_dgla, check_exactness
from .grid import RADIUS_MODES
from .mass import MassDomainError, adm_energy, komar_mass, positivity_check
from .report import RunManifest, write_csv, write_report
from .scenarios import (Scenario, ScenarioError, classify_sequence,
                        eom_verdict, fold_verdicts, load_scenario,
                        residual_csv_rows, run_scenario, study)
from .symmetry import PoincareElement

USAGE_ERROR, FAIL, OK, INCONCLUSIVE = 2, 1, 0, 3

VERDICT_CODES = {"pass": OK, "fail": FAIL, "inconclusive": INCONCLUSIVE}


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get("PCGRAV_OUT", "pcgrav-reports"))


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise AlgebraFormatError(f"cannot read {path}: {exc}") from None


def _manifest(args, scenario: Scenario, command: str) -> RunManifest:
    grid = {"L": scenario.half_width, "N": scenario.points,
            "r": scenario.cutoff_inner, "R": scenario.cutoff_outer,
            "radius_mode": scenario.radius_mode}
    return RunManifest(command=command, scenario_hash=scenario.source_hash,
                       grid=grid, thresholds=scenario.thresholds,
                       threads=args.threads)


def _load(args, **overrides) -> Scenario:
    """The scenario of --scenario, with --Ns, --radii and --radius-mode as
    the document keys they replace."""
    given = {"Ns": args.ns, "radii": getattr(args, "radii", None),
             "radius_mode": args.radius_mode, **overrides}
    return load_scenario(args.scenario, **{
        key: value for key, value in given.items() if value is not None})


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
# pc
# ---------------------------------------------------------------------------

def cmd_pc(args) -> int:
    scenario = _load(args)
    if args.pc_command == "eom" and not scenario.generators:
        raise ScenarioError("generators: pc eom needs at least one generator")
    grid = scenario.grid()
    chart = scenario.chart()
    e, omega = chart.tetrad(grid), chart.connection(grid)
    lam = scenario.cosmological_constant
    body = {"scenario": scenario.echo(), "N": scenario.points,
            "h": grid.spacing, "S": action_pc(e, omega, lam)}
    verdict = "pass"
    if args.pc_command == "eom":
        _, body["torsion_norm"] = torsion_residual(e, omega)
        _, body["einstein_norm"] = einstein_residual(e, omega, lam)
        form = standard_test_form(grid, scenario.cutoff())
        gen = PoincareElement.from_name(scenario.generators[0])
        _, body["extra_term_norm"] = extra_eom_term(e, form, gen)
        tol = scenario.thresholds["eom_abs_tol"]
        body["eom_abs_tol"] = tol
        verdict = ("pass" if max(body["torsion_norm"],
                                 body["einstein_norm"]) <= tol else "fail")
    body["verdict"] = verdict
    manifest = _manifest(args, scenario, f"pc {args.pc_command}")
    write_report(_out_dir(args), f"pc_{args.pc_command}", manifest, body)
    return VERDICT_CODES[verdict]


# ---------------------------------------------------------------------------
# killing
# ---------------------------------------------------------------------------

def cmd_killing(args) -> int:
    scenario = _load(args)
    body = run_scenario(scenario)
    manifest = _manifest(args, scenario, "killing residuals")
    out = _out_dir(args)
    write_report(out, "killing_residuals", manifest, body)
    for geometry, section in body.get("sections", {}).items():
        header, rows = residual_csv_rows(section, scenario.generators)
        write_csv(out, f"residuals_{geometry}", header, rows)
    return VERDICT_CODES[body["verdict"]]


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------

def cmd_mass(args) -> int:
    scenario = _load(args)
    metric = scenario.chart().metric(scenario.grid())
    try:
        if args.mass_command == "adm":
            result = adm_energy(metric, scenario.radii)
            result["positivity"] = positivity_check(result["extrapolated"],
                                                    (0.0, 0.0, 0.0))
            verdict = "pass" if result["positivity"]["passed"] else "fail"
        else:
            result = komar_mass(metric, scenario.radii)
            verdict = "pass"
    except MassDomainError as exc:
        result, verdict = {"reason": str(exc)}, "fail"
    result["scenario"] = scenario.echo()
    result["verdict"] = verdict
    manifest = _manifest(args, scenario, f"mass {args.mass_command}")
    write_report(_out_dir(args), f"mass_{args.mass_command}", manifest,
                 result)
    return VERDICT_CODES[verdict]


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

RING = 5     # t slices the t stencil reads: two on each side


def leibniz_residual_norms(scenario: Scenario, resolutions, threads: int):
    """Graded Leibniz defect of d on seeded random smooth Lambda^2 fields.

    max |d[a,b] - ([da,b] - [a,db])| over the grid, streamed over t: each
    of ``min(threads, N)`` workers walks one contiguous t range
    (:func:`_leibniz_block`), and the max over their maxima is the max
    over the grid.  The workers are processes forked for this call and
    joined before it returns; a single range runs in the calling process.
    """
    # imported here: commands that never start a pool skip their import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    size = min(threads, max(resolutions))
    pool = contextlib.nullcontext() if size == 1 else ProcessPoolExecutor(
        size, mp_context=multiprocessing.get_context("fork"))
    with pool:
        norms, spacings = [], []
        for n in resolutions:
            grid, coef, waves = _leibniz_fields(scenario, n)
            workers = min(threads, n)
            bounds = [n * w // workers for w in range(workers + 1)]
            run = map if workers == 1 else pool.map
            tops = run(_leibniz_block, [grid] * workers, [coef] * workers,
                       [waves] * workers, bounds[:-1], bounds[1:])
            norms.append(float(np.max(list(tops))))
            spacings.append(grid.spacing)
    return norms, spacings


def _leibniz_fields(scenario: Scenario, n: int):
    """The ladder's grid at N = n and the seeded data of a and b on it.

    a then b: one amplitude per coordinate wave for each component, drawn
    in that order; ``coef[mu]`` has the grid axes of a ring slot, and
    ``waves[mu]`` is the wave along axis mu.
    """
    grid = scenario.grid(n)
    amps = np.random.default_rng(20260808).normal(size=(2, 4, 6, 4))
    coef = np.moveaxis(amps, -1, 0)[..., None, None, None]
    k = np.pi / scenario.half_width
    waves = [np.sin(k * grid.coordinate(mu) + 0.3 * mu) for mu in range(4)]
    return grid, coef, waves


def _leibniz_block(grid, coef, waves, t0: int, t1: int):
    """Max of the Leibniz residual over t slices ``t0 <= t < t1``.

    Rings hold the slices of a, b and [a, b] within two of the current t.
    Each slice is built once, and a block also builds the two slices past
    each end of its range that the t stencil reads.  The buffers are this
    block's own, reused from slice to slice.
    """
    n, nodes = grid.points, grid.shape[1:]
    rings = np.empty((2, RING, 4, 6) + nodes)       # a, b
    ring_a, ring_b = rings
    ring_ab = np.empty((RING, 6, 6) + nodes)
    d_buf = np.empty((6, 6, 1) + nodes)
    x_buf, y_buf = np.empty((2, 4, 6, 1) + nodes)
    scratch = np.empty(2 * 6 * grid.points ** 3)     # two Lambda^2 slices

    def build(t):
        # each wave depends on one coordinate: sampled along its axis
        partial = ((0 + coef[0] * waves[0][t]) + coef[1] * waves[1][0]
                   + coef[2] * waves[2][0])
        np.add(partial, coef[3] * waves[3][0], out=rings[:, t % RING])
        F.wedge(at(ring_a, t, 1), at(ring_b, t, 1), "bracket",
                out=ring_ab[t % RING][:, :, None], scratch=scratch)

    def at(ring, t, degree):
        return F.RingSlice.of(ring, grid, t, degree, 2)

    for t in range(max(t0 - 2, 0), min(t0 + 2, n)):
        build(t)
    top = float("-inf")
    for t in range(t0, t1):
        if t + 2 < n:
            build(t + 2)
        a, b = at(ring_a, t, 1), at(ring_b, t, 1)
        da = F.ext_d(a, out=d_buf, scratch=scratch)
        x = F.wedge(da, b, "bracket", out=x_buf, scratch=scratch)
        db = F.ext_d(b, out=d_buf, scratch=scratch)
        y = F.wedge(a, db, "bracket", out=y_buf, scratch=scratch)
        rhs = np.subtract(x.data, y.data, out=x_buf)
        d_ab = F.ext_d(at(ring_ab, t, 2), out=y_buf, scratch=scratch)
        residual = np.subtract(d_ab.data, rhs, out=y_buf)
        top = np.maximum(top, np.abs(residual, out=y_buf).max())
    return top


def cmd_convergence(args) -> int:
    scenario = _load(args)
    resolutions = scenario.resolutions
    quantities = args.quantities or ["torsion", "einstein"]
    if len(resolutions) < 3:
        print("convergence needs at least 3 resolutions", file=sys.stderr)
        return USAGE_ERROR
    unknown = [q for q in quantities
               if q not in ("torsion", "einstein", "leibniz")
               and not q.startswith(("symmetry:", "extra:"))]
    if unknown:
        print(f"unknown quantity {unknown[0]!r}", file=sys.stderr)
        return USAGE_ERROR
    body = {"scenario": scenario.echo(), "resolutions": list(resolutions),
            "quantities": {}}
    # the echo keeps the document's generators; the requested ones that it
    # lacks are appended, and checked, by loading again
    requested = [q.split(":", 1)[1] for q in quantities
                 if q.startswith(("symmetry:", "extra:"))]
    extra_names = [n for n in requested if n not in scenario.generators]
    if extra_names:
        scenario = _load(args, generators=[*scenario.generators,
                                           *dict.fromkeys(extra_names)])
    # one sweep builds each field once for every quantity that reads it
    eom_ns = resolutions if {"torsion", "einstein"} & {*quantities} else ()
    gen_ns = resolutions if requested else ()
    sections = (study(scenario, scenario.geometry, gen_ns, eom_ns)
                if eom_ns or gen_ns else {})
    for quantity in quantities:
        if quantity in ("torsion", "einstein"):
            entry = sections["eom"][quantity]
        elif quantity == "leibniz":
            norms, spacings = leibniz_residual_norms(scenario, resolutions,
                                                     args.threads)
            entry = classify_sequence(norms, spacings, scenario.thresholds,
                                      resolutions)
            eom_verdict(entry)
        else:
            family, name = quantity.split(":", 1)
            key = ("symmetry_residuals" if family == "symmetry"
                   else "extra_eom_terms")
            # a convergence run verdicts decay alone, not family thresholds
            entry = dict(sections["generators"][key][name])
            eom_verdict(entry)
        # non-monotone decaying sequences are not trustworthy: flag them
        norms = entry["norms"]
        if (entry["kind"] not in ("exact", "non-decaying", "non-finite")
                and any(b > a for a, b in zip(norms, norms[1:]))):
            entry = dict(entry)
            entry["verdict"] = "inconclusive"
            entry["note"] = "non-monotone residuals; refine"
        body["quantities"][quantity] = entry
    body["verdict"] = fold_verdicts(
        q["verdict"] for q in body["quantities"].values())
    manifest = _manifest(args, scenario, "convergence")
    write_report(_out_dir(args), "convergence", manifest, body)
    rows = [[name, repr(entry["norms"]),
             "exact" if entry["kind"] == "exact" else repr(entry["slope"]),
             entry["verdict"]]
            for name, entry in body["quantities"].items()]
    write_csv(_out_dir(args), "convergence",
              ["quantity", "norms", "slope", "verdict"], rows)
    return VERDICT_CODES[body["verdict"]]


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
                       help="worker processes that split the Leibniz "
                            "ladder's t range (default: the CPUs this "
                            "process may use); results do not depend on it")
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
    except (F.FormFieldError, MassDomainError, StructureError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
