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
3 inconclusive (refinement needed).  Reports land in --out, the
PCGRAV_OUT env var, or ./pcgrav-reports.  --threads sizes the worker pool
of the wedge and exterior-derivative kernels (default: the CPUs this
process may use) and is recorded in the manifest; each output block is
written by one thread in a fixed order, so numeric report bodies are
byte-identical across --threads settings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import fields as F
from .action import (action_pc, einstein_residual, extra_eom_term,
                     torsion_residual)
from .algebras import (AlgebraFormatError, action_from_json, dgla_from_json)
from .graded import StructureError, build_action_dgla, check_dgla, check_exactness
from .mass import MassDomainError, adm_energy, komar_mass, positivity_check
from .report import RunManifest, write_csv, write_report
from .scenarios import (Scenario, ScenarioError, classify_sequence,
                        eom_study, eom_verdict, fold_verdicts,
                        generator_study, load_scenario, residual_csv_rows,
                        run_scenario, standard_test_form)
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


def _manifest(args, scenario: Scenario = None, command: str = "",
              scenario_hash: str = "") -> RunManifest:
    grid = {}
    thresholds = {}
    if scenario is not None:
        grid = {"L": scenario.half_width, "N": scenario.points,
                "r": scenario.cutoff_inner, "R": scenario.cutoff_outer,
                "radius_mode": scenario.radius_mode}
        thresholds = scenario.thresholds
        scenario_hash = scenario.source_hash
    return RunManifest(command=command, scenario_hash=scenario_hash,
                       grid=grid, thresholds=thresholds,
                       threads=getattr(args, "threads", 1))


def _apply_overrides(args, scenario: Scenario) -> Scenario:
    changes = {}
    if getattr(args, "radius_mode", None):
        changes["radius_mode"] = args.radius_mode
    if getattr(args, "ns", None):
        changes["resolutions"] = tuple(args.ns)
    if getattr(args, "radii", None):
        changes["radii"] = tuple(args.radii)
    if not changes:
        return scenario
    return dataclasses.replace(scenario, **changes)


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
    scenario = _apply_overrides(args, load_scenario(args.scenario))
    if args.pc_command == "eom" and not scenario.generators:
        raise ScenarioError("generators: pc eom needs at least one generator")
    grid = scenario.grid()
    chart = scenario.chart()
    e, omega = chart.tetrad(grid), chart.connection(grid)
    cfg = scenario.config()
    body = {"scenario": scenario.echo(), "N": scenario.points,
            "h": grid.spacing, "S": action_pc(e, omega, cfg)}
    verdict = "pass"
    if args.pc_command == "eom":
        _, body["torsion_norm"] = torsion_residual(e, omega, cfg)
        _, body["einstein_norm"] = einstein_residual(e, omega, cfg)
        cutoff = scenario.cutoff()
        gen = PoincareElement.from_name(scenario.generators[0])
        form = standard_test_form(grid, cutoff, gen, scenario.radius_mode)
        _, body["extra_term_norm"] = extra_eom_term(e, form, cutoff, cfg)
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
    scenario = _apply_overrides(args, load_scenario(args.scenario))
    report = run_scenario(scenario)
    manifest = _manifest(args, scenario, "killing residuals")
    out = _out_dir(args)
    write_report(out, "killing_residuals", manifest, report.body)
    for geometry, section in report.body.get("sections", {}).items():
        header, rows = residual_csv_rows(section, scenario.generators)
        write_csv(out, f"residuals_{geometry}", header, rows)
    return report.exit_code


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------

def cmd_mass(args) -> int:
    scenario = _apply_overrides(args, load_scenario(args.scenario))
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

def leibniz_residual_norms(scenario: Scenario, resolutions):
    """Graded Leibniz defect of d on seeded random smooth Lambda^2 fields."""
    import numpy as np
    norms, spacings = [], []
    for n in resolutions:
        grid = scenario.grid(n)
        rng = np.random.default_rng(20260808)
        k = np.pi / scenario.half_width
        # each wave depends on one coordinate: sample it along its axis
        waves = [np.sin(k * grid.coordinate(mu) + 0.3 * mu)
                 for mu in range(4)]

        def smooth():
            data = np.zeros((4, 6) + grid.shape)
            for s in range(4):
                for i in range(6):
                    amp = rng.normal(size=4)
                    partial = sum(amp[mu] * waves[mu] for mu in range(3))
                    np.add(partial, amp[3] * waves[3], out=data[s, i])
            return F.FormField(grid, 1, 2, data)

        a, b = smooth(), smooth()
        rhs = (F.form_dgla_bracket(F.ext_d(a), b)
               - F.form_dgla_bracket(a, F.ext_d(b)))
        ab = F.form_dgla_bracket(a, b)
        del a, b
        norms.append((F.ext_d(ab) - rhs).max_abs())
        spacings.append(grid.spacing)
    return norms, spacings


def cmd_convergence(args) -> int:
    scenario = _apply_overrides(args, load_scenario(args.scenario))
    resolutions = scenario.resolutions
    quantities = args.quantities or ["torsion", "einstein"]
    if len(resolutions) < 3:
        print("convergence needs at least 3 resolutions", file=sys.stderr)
        return USAGE_ERROR
    body = {"scenario": scenario.echo(), "resolutions": list(resolutions),
            "quantities": {}}
    requested = [q.split(":", 1)[1] for q in quantities
                 if q.startswith(("symmetry:", "extra:"))]
    if set(requested) - set(scenario.generators):
        extra_names = [n for n in requested if n not in scenario.generators]
        scenario = dataclasses.replace(
            scenario, generators=tuple(scenario.generators) + tuple(
                dict.fromkeys(extra_names)))
    eom = None
    gen_study = None
    for quantity in quantities:
        if quantity in ("torsion", "einstein"):
            if eom is None:
                eom = eom_study(scenario, scenario.geometry, resolutions)
            entry = eom[quantity]
        elif quantity == "leibniz":
            norms, spacings = leibniz_residual_norms(scenario, resolutions)
            entry = classify_sequence(norms, spacings, scenario.thresholds,
                                      resolutions)
            eom_verdict(entry)
        elif quantity.startswith(("symmetry:", "extra:")):
            if gen_study is None:
                gen_study = generator_study(scenario, scenario.geometry,
                                            resolutions)
            family, name = quantity.split(":", 1)
            key = ("symmetry_residuals" if family == "symmetry"
                   else "extra_eom_terms")
            # a convergence run verdicts decay alone, not family thresholds
            entry = dict(gen_study[key][name])
            eom_verdict(entry)
        else:
            print(f"unknown quantity {quantity!r}", file=sys.stderr)
            return USAGE_ERROR
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
                       help="worker threads of the wedge and exterior "
                            "derivative kernels (default: the CPUs this "
                            "process may use); results do not depend on it")
        p.add_argument("--radius-mode", dest="radius_mode",
                       choices=("4d", "spatial"), default=None)
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
    if hasattr(args, "threads"):
        F.set_threads(args.threads)
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
