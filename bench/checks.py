"""Output checks: every CLI call of a round against closed forms, numbers
recomputed here from the report, and properties the method must have.

Each ``check_*`` returns a list of problems; an empty list is a pass.  The
numeric checks use only the standard library, so they share no code with
the program they check.  ``check_run`` holds the run-level checks that
drive the exact algebra library directly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import action_matrices

# Thresholds the shipped scenarios run with (pcgrav's defaults).
THRESHOLDS = {"slope_min": 1.7, "decay_max_slope": 0.5, "pass_factor": 4.0,
              "fail_factor": 10.0, "exact_floor": 1e-11}
SPHERICAL = ("P0", "L1", "L2", "L3")
POINCARE = SPHERICAL + ("P1", "P2", "P3", "K1", "K2", "K3")
FAMILIES = ("symmetry_residuals", "extra_eom_terms")

SLOPE_RTOL = 1e-9          # our least-squares fit against numpy's polyfit
TRANSLATION_RTOL = 2e-3    # FD vs closed form d_i A, d_i B (4.5e-4 seen)
ADM_RTOL = 1e-3            # per-radius ADM vs M(1+M/2rho)^3 (2.3e-4 seen)
MASS_TOL = 0.01            # extrapolated ADM, and Komar, against M
AGREEMENT_TOL = 0.02       # Komar against ADM


def _close(a, b, rtol):
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def fit_slope(norms, spacings):
    """Least-squares slope of log norm against log spacing (positive norms)."""
    pts = [(math.log(h), math.log(v)) for h, v in zip(spacings, norms)
           if v > 0.0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def classify(norms, spacings):
    if max(norms) <= THRESHOLDS["exact_floor"]:
        return "exact", None
    if len(norms) < 2:
        return "single", None
    slope = fit_slope(norms, spacings)
    if slope is None:
        return "ambiguous", None
    if slope >= THRESHOLDS["slope_min"]:
        return "decaying", slope
    if slope <= THRESHOLDS["decay_max_slope"]:
        return "non-decaying", slope
    return "ambiguous", slope


def spacings_for(doc: dict, resolutions) -> list:
    return [2.0 * doc["grid"]["L"] / (n - 1) for n in resolutions]


def _load_report(record, name) -> tuple:
    """(body, problems) of the report a call wrote, matched to its echo."""
    path = Path(record["out"]) / f"{name}.json"
    try:
        body = json.loads(path.read_text())["body"]
    except (OSError, ValueError, KeyError) as exc:
        return None, [f"no readable report {path}: {exc}"]
    problems = []
    try:
        if json.loads(record["stdout"]) != body:
            problems.append("stdout echo differs from the report body")
    except ValueError:
        problems.append("stdout is not the report body")
    return body, problems


def _read_csv(path: Path) -> list:
    return list(csv.reader(io.StringIO(path.read_text())))


def _check_entry(where, entry, norms_spacings):
    """Recompute kind and slope of one ladder entry."""
    problems = []
    kind, slope = classify(entry["norms"], norms_spacings)
    if entry["kind"] != kind:
        problems.append(f"{where}: kind {entry['kind']}, recomputed {kind}")
    reported = entry.get("slope")
    if (slope is None) != (reported is None) or (
            slope is not None and not _close(slope, reported, SLOPE_RTOL)):
        problems.append(f"{where}: slope {reported}, recomputed {slope}")
    return problems, kind, slope


def translation_norms(mass, doc, n):
    """Closed-form max |d_i A|, |d_i B| (i = 1, 2, 3) over the norm region:
    spatial radius above the cutoff's inner radius, two nodes off every
    face.  A' = M/(rho^2 (1+m)^2), B' = -M(1+m)/rho^2, m = M/(2 rho)."""
    half, r = doc["grid"]["L"], doc["cutoff"]["r"]
    h = 2.0 * half / (n - 1)
    xs = [-half + h * i for i in range(n)][2:n - 2]
    best = [0.0, 0.0, 0.0]
    for x in xs:
        for y in xs:
            for z in xs:
                rho = math.sqrt(x * x + y * y + z * z)
                if not rho > r:
                    continue
                m = mass / (2.0 * rho)
                radial = max(mass / (rho * rho * (1.0 + m) ** 2),
                             mass * (1.0 + m) / (rho * rho))
                for i, c in enumerate((x, y, z)):
                    best[i] = max(best[i], radial * abs(c) / rho)
    return best


def _check_section(geometry, section, doc):
    problems = []
    resolutions = section["resolutions"]
    spacings = spacings_for(doc, resolutions)
    if section["spacings"] != spacings:
        problems.append(f"{geometry}: spacings {section['spacings']} "
                        f"!= 2L/(N-1) = {spacings}")
    expected = set(POINCARE if geometry == "minkowski" else SPHERICAL)
    floor = THRESHOLDS["exact_floor"]
    for family in FAMILIES:
        entries = section[family]
        if sorted(entries) != sorted(POINCARE):
            problems.append(f"{geometry}/{family}: generators "
                            f"{sorted(entries)}")
            continue
        kinds = {}
        for name, entry in entries.items():
            found, kinds[name], _ = _check_entry(
                f"{geometry}/{family}/{name}", entry, spacings)
            problems += found
        finals = [entries[n]["norms"][-1] for n in entries
                  if kinds[n] in ("exact", "decaying")]
        threshold = THRESHOLDS["pass_factor"] * max([floor] + finals)
        fail_level = THRESHOLDS["fail_factor"] * threshold
        for name, entry in entries.items():
            where = f"{geometry}/{family}/{name}"
            final = entry["norms"][-1]
            if not _close(entry["pass_threshold"], threshold, 1e-12):
                problems.append(f"{where}: threshold {entry['pass_threshold']}"
                                f", recomputed {threshold}")
            if name in expected:
                ok = kinds[name] == "exact" or (
                    kinds[name] == "decaying" and final <= threshold)
                want = "pass"
            else:
                ok = kinds[name] == "non-decaying" and final >= fail_level
                want = "fail"
            if not ok or entry["verdict"] != want:
                problems.append(f"{where}: {kinds[name]}, final {final!r}, "
                                f"verdict {entry['verdict']}, want {want}")
            if geometry == "minkowski" and max(entry["norms"]) > floor:
                problems.append(f"{where}: flat-space norm above exact_floor")
        key = "symmetry" if family == "symmetry_residuals" else "extra"
        if not _close(section["pass_thresholds"][key], threshold, 1e-12):
            problems.append(f"{geometry}: {key} threshold "
                            f"{section['pass_thresholds'][key]}, recomputed "
                            f"{threshold}")
    if section["verdict"] != "pass":
        problems.append(f"{geometry}: section verdict {section['verdict']}")

    eom = section["eom"]
    eom_spacings = spacings_for(doc, eom["resolutions"])
    for quantity in ("torsion", "einstein"):
        entry = eom[quantity]
        found, kind, slope = _check_entry(f"{geometry}/eom/{quantity}",
                                          entry, eom_spacings)
        problems += found
        if geometry == "minkowski":
            if any(v != 0.0 for v in entry["norms"]):
                problems.append(f"flat {quantity} norms {entry['norms']} "
                                "are not exactly 0")
        elif kind != "decaying" or slope < THRESHOLDS["slope_min"]:
            problems.append(f"exterior {quantity}: {kind}, slope {slope}")
        if entry["verdict"] != "pass":
            problems.append(f"{geometry}/eom/{quantity}: {entry['verdict']}")

    killing = section["killing_norms"]
    if geometry == "minkowski":
        bad = {n: v for n, v in killing.items() if v > floor}
        if bad:
            problems.append(f"flat Killing norms above exact_floor: {bad}")
        if killing.get("P0") != 0.0:
            problems.append(f"flat P0 Killing norm {killing.get('P0')} != 0")
    elif not killing.get("P0", 1.0) <= floor:
        problems.append(f"exterior P0 Killing norm {killing.get('P0')} "
                        "above exact_floor")
    return problems


def _check_csv(geometry, section, path: Path):
    rows = _read_csv(path)
    header = (["generator"] + [f"norm_N{n}" for n in section["resolutions"]]
              + ["slope", "verdict"])
    if not rows or rows[0] != header:
        return [f"{path.name}: header {rows[:1]}"]
    problems = []
    entries = section["symmetry_residuals"]
    for row in rows[1:]:
        entry = entries.get(row[0])
        if entry is None:
            problems.append(f"{path.name}: unknown generator {row[0]}")
            continue
        norms = [float(x) for x in row[1:-2]]
        slope = "exact" if entry["kind"] == "exact" else repr(entry["slope"])
        if (norms != entry["norms"] or row[-2] != slope
                or row[-1] != entry["verdict"]):
            problems.append(f"{path.name}: row {row[0]} differs from report")
    if len(rows) - 1 != len(entries):
        problems.append(f"{path.name}: {len(rows) - 1} rows")
    return problems


def check_killing(op, record, round_records, root):
    body, problems = _load_report(record, "killing_residuals")
    if body is None:
        return problems
    doc = json.loads((root / op["argv"][3]).read_text())
    if body["verdict"] != "pass":
        problems.append(f"verdict {body['verdict']}")
    for key, value in THRESHOLDS.items():
        if body["scenario"]["thresholds"].get(key) != value:
            problems.append(f"threshold {key} is not {value}")
    sections = body.get("sections", {})
    if sorted(sections) != ["minkowski", "schwarzschild"]:
        return problems + [f"sections {sorted(sections)}"]
    for geometry, section in sections.items():
        problems += _check_section(geometry, section, doc)
        csv_path = Path(record["out"]) / f"residuals_{geometry}.csv"
        problems += _check_csv(geometry, section, csv_path)
    exterior = sections["schwarzschild"]
    if exterior["resolutions"] != doc["Ns"] or \
            exterior["eom"]["resolutions"] != doc["Ns"]:
        problems.append(f"exterior ladder is not the document's {doc['Ns']}")
    n = exterior["resolutions"][-1]
    closed = translation_norms(doc["M"], doc, n)
    for i, name in enumerate(("P1", "P2", "P3")):
        final = exterior["symmetry_residuals"][name]["norms"][-1]
        if not _close(final, closed[i], TRANSLATION_RTOL):
            problems.append(f"exterior {name} norm {final!r} at N = {n} vs "
                            f"closed form {closed[i]!r}")
    return problems


def check_leibniz(op, record, round_records, root):
    body, problems = _load_report(record, "convergence")
    if body is None:
        return problems
    doc = json.loads((root / op["argv"][2]).read_text())
    resolutions = [int(n) for n in op["argv"][4].split(",")]
    entry = body["quantities"].get("leibniz")
    if entry is None or body["resolutions"] != resolutions:
        return problems + ["no leibniz ladder over the requested Ns"]
    norms = entry["norms"]
    if not all(b < a for a, b in zip(norms, norms[1:])):
        problems.append(f"norms do not strictly decrease: {norms}")
    slope = fit_slope(norms, spacings_for(doc, resolutions))
    if slope is None or slope < THRESHOLDS["slope_min"]:
        problems.append(f"recomputed slope {slope} below slope_min")
    elif entry["slope"] is None or not _close(slope, entry["slope"],
                                              SLOPE_RTOL):
        problems.append(f"slope {entry['slope']}, recomputed {slope}")
    if entry["verdict"] != "pass" or body["verdict"] != "pass":
        problems.append(f"verdict {entry['verdict']}/{body['verdict']}")
    rows = _read_csv(Path(record["out"]) / "convergence.csv")
    if rows[1:] != [["leibniz", repr(norms), repr(entry["slope"]),
                     entry["verdict"]]]:
        problems.append(f"convergence.csv differs from report: {rows[1:]}")
    return problems


def adm_closed_form(mass, rho):
    return mass * (1.0 + mass / (2.0 * rho)) ** 3


def check_mass_adm(op, record, round_records, root):
    body, problems = _load_report(record, "mass_adm")
    if body is None:
        return problems
    mass, flat = op["params"]["M"], op["params"]["geometry"] == "minkowski"
    if body["radii"] != [8.0, 12.0, 16.0]:
        problems.append(f"radii {body['radii']}")
    for rho, value in zip(body["radii"], body["values"]):
        want = 0.0 if flat else adm_closed_form(mass, rho)
        if not (value == want if flat else _close(value, want, ADM_RTOL)):
            problems.append(f"ADM at rho = {rho}: {value!r}, closed form "
                            f"{want!r}")
    extrapolated = body["extrapolated"]
    if flat and extrapolated != 0.0:
        problems.append(f"flat ADM extrapolates to {extrapolated!r}")
    if not flat and abs(extrapolated - mass) > MASS_TOL * mass:
        problems.append(f"extrapolated ADM {extrapolated!r} not within 1% "
                        f"of M = {mass}")
    positivity = body["positivity"]
    if not positivity["passed"] or positivity["energy"] != extrapolated:
        problems.append(f"positivity {positivity}")
    if body["verdict"] != "pass":
        problems.append(f"verdict {body['verdict']}")
    return problems


def check_mass_komar(op, record, round_records, root):
    body, problems = _load_report(record, "mass_komar")
    if body is None:
        return problems
    mass, flat = op["params"]["M"], op["params"]["geometry"] == "minkowski"
    values = body["values"] + [body["extrapolated"]]
    if flat and any(v != 0.0 for v in values):
        problems.append(f"flat Komar values {values}")
    if not flat and any(abs(v - mass) > MASS_TOL * mass for v in values):
        problems.append(f"Komar values {values} not within 1% of M = {mass}")
    if body["verdict"] != "pass":
        problems.append(f"verdict {body['verdict']}")
    # the ADM call on the same document ran just before, in the same round
    scenario = op["argv"][3]
    adm = [r for r in round_records[:record["op"]]
           if r["argv"][:2] == ["mass", "adm"] and r["argv"][3] == scenario]
    if not adm:
        return problems + ["no ADM call on the same document"]
    adm_body, _ = _load_report(adm[-1], "mass_adm")
    if adm_body is None:
        return problems + ["ADM report missing"]
    e_adm, e_komar = adm_body["extrapolated"], body["extrapolated"]
    scale = max(abs(e_adm), abs(e_komar))
    if abs(e_adm - e_komar) > AGREEMENT_TOL * scale:
        problems.append(f"Komar {e_komar!r} and ADM {e_adm!r} differ by "
                        "more than 2%")
    return problems


# ---------------------------------------------------------------------------
# exact algebra, degree 0, recomputed with Fractions
# ---------------------------------------------------------------------------

def read_algebra(path) -> tuple:
    """(labels, {(x, y): {z: c}}) of a degree-0 algebra document."""
    doc = json.loads(Path(path).read_text())
    if any(b["degree"] != 0 for b in doc["basis"]):
        raise ValueError(f"{path}: reference check covers degree 0 only")
    table = {(b["i"], b["j"]): {e["k"]: Fraction(e["c"]) for e in b["out"]}
             for b in doc.get("brackets", ())}
    return [b["label"] for b in doc["basis"]], table


def _bracket(table, u, v):
    out = {}
    for x, a in u.items():
        for y, b in v.items():
            for z, c in table.get((x, y), {}).items():
                out[z] = out.get(z, 0) + a * b * c
    return {z: c for z, c in out.items() if c != 0}


def _add(*vectors):
    out = {}
    for sign, vec in vectors:
        for k, c in vec.items():
            out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c != 0}


def lie_problems(labels, table):
    """Antisymmetry and Jacobi on basis elements."""
    problems = []
    for x in labels:
        for y in labels:
            if _add((1, table.get((x, y), {})), (1, table.get((y, x), {}))):
                problems.append(f"[{x},{y}] != -[{y},{x}]")
            for z in labels:
                cyclic = ((x, y, z), (y, z, x), (z, x, y))
                jac = _add(*[(1, _bracket(table, {a: 1},
                                          _bracket(table, {b: 1}, {c: 1})))
                             for a, b, c in cyclic])
                if jac:
                    problems.append(f"Jacobi fails on ({x},{y},{z})")
    return problems


def action_problems(g, h, action_path):
    """alpha is a Lie map into the derivations of h."""
    (glabels, gtable), (hlabels, htable) = g, h
    doc = json.loads(Path(action_path).read_text())
    act = {item["x"]: {row["i"]: {e["k"]: Fraction(e["c"])
                                  for e in row.get("out", ())}
                       for row in item.get("rows", ())}
           for item in doc["action"]}

    def apply(x, vec):
        return _add(*[(c, act.get(x, {}).get(i, {})) for i, c in vec.items()])

    def apply_vec(xvec, vec):
        return _add(*[(c, apply(x, vec)) for x, c in xvec.items()])

    problems = []
    for x in glabels:
        for y in glabels:
            for w in hlabels:
                lhs = apply_vec(_bracket(gtable, {x: 1}, {y: 1}), {w: 1})
                rhs = _add((1, apply(x, apply(y, {w: 1}))),
                           (-1, apply(y, apply(x, {w: 1}))))
                if _add((1, lhs), (-1, rhs)):
                    problems.append(f"alpha[{x},{y}] != [alpha {x}, alpha {y}]"
                                    f" on {w}")
        for u in hlabels:
            for v in hlabels:
                lhs = apply(x, _bracket(htable, {u: 1}, {v: 1}))
                rhs = _add((1, _bracket(htable, apply(x, {u: 1}), {v: 1})),
                           (1, _bracket(htable, {u: 1}, apply(x, {v: 1}))))
                if _add((1, lhs), (-1, rhs)):
                    problems.append(f"alpha({x}) is no derivation on "
                                    f"({u},{v})")
    return problems


def check_algebra_check(op, record, round_records, root):
    problems = []
    if record["stdout"] != "dgla axioms: pass\n":
        problems.append(f"stdout {record['stdout']!r}")
    labels, table = read_algebra(root / op["params"]["algebra"])
    return problems + lie_problems(labels, table)[:3]


def check_algebra_action(op, record, round_records, root):
    problems = []
    if record["stdout"] != "dgla axioms: pass\nexact sequence: pass\n":
        problems.append(f"stdout {record['stdout']!r}")
    params = op["params"]
    g = read_algebra(root / params["g"])
    h = read_algebra(root / params["h"])
    return problems + action_problems(g, h, root / params["alpha"])[:3]


CHECKS = {"killing": check_killing, "leibniz": check_leibniz,
          "mass_adm": check_mass_adm, "mass_komar": check_mass_komar,
          "algebra_check": check_algebra_check,
          "algebra_action": check_algebra_action}


def check_op(op, record, round_records, root) -> list:
    """Problems of one CLI call: its exit code, then its output."""
    if record["exit"] != 0:
        return [f"exit {record['exit']}: {record['stderr'].strip()[-300:]}"]
    try:
        return CHECKS[op["check"]](op, record, round_records, root)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output ({type(exc).__name__}: {exc})"]


def check_run(plan, library, root) -> list:
    """Run-level checks on what the worker got from the exact algebra
    library: seeded action maps come back from ``extract_action_map`` equal
    to their documents, and the naive + variant fails antisymmetry on a
    g/h pair."""
    run_checks = plan["run_checks"]
    if not run_checks:
        return []
    if not library:
        return ["worker ran no library checks"]
    g = read_algebra(root / run_checks["g"])[0]
    h = read_algebra(root / run_checks["h"])[0]
    problems = []
    for path, matrices in zip(run_checks["round_trip"],
                              library["round_trip"]):
        doc = json.loads((root / path).read_text())
        want = action_matrices(doc, g, h)
        got = {x: [[Fraction(c) for c in row] for row in m]
               for x, m in zip(g, matrices)}
        if got != want:
            problems.append(f"{path}: action map does not round-trip")
    if len(library["round_trip"]) != len(run_checks["round_trip"]):
        problems.append("round trips missing")
    witnesses = library["plus_witnesses"]
    if not witnesses or sorted(w.split(".")[0]
                               for w in witnesses[0]) != ["g", "h"]:
        problems.append(f"plus variant not rejected with a g/h antisymmetry "
                        f"witness: {witnesses[:1]}")
    return problems
