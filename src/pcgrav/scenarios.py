"""Scenario configuration, convergence verdicts, and the scenario runner.

A scenario document is read against ``SCHEMA``, one row per path with its
default and converter, and then the rules that tie fields together.  A
number is a finite JSON number (never a bool or a string), a node count an
odd JSON integer, and every error starts with the path at fault; command-line
overrides are document keys and go the same way.

A scenario names a geometry, grid, cutoff, and thresholds; the runner
samples residual norms over a ladder of resolutions and reduces them to
pass / fail / inconclusive verdicts:

* a sequence at rounding level is "exact";
* a non-finite norm makes it "non-finite", a fail; fewer than three
  norms, or a zero norm, in a sequence that is not exact leave it without
  a slope, inconclusive;
* log-log slope >= slope_min counts as decaying (order >= 2 in practice);
* slope <= decay_max_slope counts as non-decaying;
* the pass threshold is pass_factor times the largest final norm among the
  decaying/exact members of the same family, and a non-decaying member
  only counts as a clean "fail" when it exceeds fail_factor times that
  threshold -- anything in the gap is "inconclusive (refine)".

Scenario kinds: "spherical" studies the static-spherical generators on one
geometry and adds the mass observables; "poincare" studies all ten
generators on flat space and on the black-hole exterior.  A generator is
expected to pass where it is a Killing vector of the geometry and to fail
cleanly elsewhere (:func:`_expected_killing`).  Both geometries are
static, so their fields and most residuals store one t slice; the boosts'
residuals depend on t and are reduced one t slice at a time (see
:func:`_generator_norms`).  Each scenario command's body is one study
here: :func:`pc_study`, :func:`mass_study` on one part,
:func:`run_scenario` (``killing residuals``), or :func:`convergence_study`,
which takes the Leibniz ladder as a callable (``convergence``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fields as F
from .action import (action_pc, einstein_residual, standard_test_form,
                     torsion_residual)
from .conventions import GENERATOR_ALIASES, POINCARE_NAMES
from .geometry import MinkowskiChart, SchwarzschildIsotropic
from .grid import FACE_LAYERS, RADIUS_MODES, Grid4, restrict
from .mass import (MassDomainError, adm_energy, komar_mass,
                   positivity_check)
from .report import sha256_of_file, sha256_of_text, canonical_json
from .symmetry import (POINCARE_GENERATOR_NAMES, SPHERICAL_GENERATOR_NAMES,
                       CutoffFunction, PoincareElement, axis_derivatives,
                       killing_residual, symmetry_residual, t_windows)


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document; the message starts
    with the path of the field at fault."""


def _number(value, path: str) -> float:
    """A finite JSON number, as a float; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:           # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{path}: must be finite, got {number!r}")
    return number


def _positive(value, path: str) -> float:
    number = _number(value, path)
    if not number > 0.0:
        raise ScenarioError(f"{path}: must be positive, got {number!r}")
    return number


def _points(value, path: str) -> int:
    """Nodes per grid axis: an odd JSON integer, at least 5, whose one
    (4, 4) float field on one t slice, 128 N^3 bytes, fits in physical
    memory; every command allocates more than that at the same N."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: must be an integer, got {value!r}")
    if value < 5 or value % 2 == 0:
        raise ScenarioError(f"{path}: must be odd and >= 5, got {value}")
    need = 128 * value ** 3
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ScenarioError(f"{path}: one (4, 4) field slice at N = {value} "
                            f"needs {need} bytes; this machine has {have}")
    return value


def _one_of(*options):
    def convert(value, path: str) -> str:
        if value not in options:
            raise ScenarioError(f"{path}: must be one of "
                                f"{', '.join(options)}, got {value!r}")
        return value
    return convert


def _list_of(convert, empty: bool = False):
    """Converter of a JSON list, to a tuple of its entries through
    ``convert``, each named by its index."""
    def convert_list(value, path: str) -> tuple:
        if not isinstance(value, (list, tuple)) or not (value or empty):
            kind = "list" if empty else "non-empty list"
            raise ScenarioError(f"{path}: must be a {kind}, got {value!r}")
        return tuple(convert(item, f"{path}[{n}]")
                     for n, item in enumerate(value))
    return convert_list


# One row per document path: its default and the converter that checks a
# value there and gives it its type.  A dotted path is a key of an object.
# A spherical scenario defaults its generators to the static-spherical four.
SCHEMA = {
    "scenario": (None, _one_of("poincare", "spherical")),   # required
    "geometry": ("schwarzschild", _one_of("schwarzschild", "minkowski")),
    "M": (1.0, _number),   # a negative M is how the positivity verdict fails
    "Lambda": (0.0, _number),
    "grid.L": (20.0, _positive),
    "grid.N": (33, _points),
    "Ns": ((17, 25, 33), _list_of(_points)),
    "cutoff.r": (6.0, _positive),
    "cutoff.R": (10.0, _positive),
    "radius_mode": ("4d", _one_of(*RADIUS_MODES)),
    "radii": ((8.0, 12.0, 16.0), _list_of(_positive)),
    "generators": (POINCARE_GENERATOR_NAMES, _list_of(
        _one_of(*POINCARE_NAMES, *GENERATOR_ALIASES), empty=True)),
    # slopes take any sign; factors, floors and tolerances are positive
    "thresholds.slope_min": (1.7, _number),
    "thresholds.decay_max_slope": (0.5, _number),
    "thresholds.pass_factor": (4.0, _positive),
    "thresholds.fail_factor": (10.0, _positive),
    "thresholds.exact_floor": (1e-11, _positive),
    "thresholds.eom_abs_tol": (1e-8, _positive),
    "thresholds.mass_tol": (0.01, _positive),
    "thresholds.mass_agreement_tol": (0.02, _positive),
}

DEFAULT_THRESHOLDS = {path[len("thresholds."):]: default
                      for path, (default, _) in SCHEMA.items()
                      if path.startswith("thresholds.")}


@dataclass(frozen=True)
class Scenario:
    """A validated scenario, built by :func:`scenario_from_dict`."""
    kind: str
    geometry: str
    mass: float
    cosmological_constant: float
    half_width: float
    points: int
    resolutions: tuple
    cutoff_inner: float
    cutoff_outer: float
    radius_mode: str
    radii: tuple
    generators: tuple
    thresholds: dict
    source_hash: str

    def grid(self, n=None) -> Grid4:
        """The grid at N = n, excising the cutoff's inner ball."""
        return Grid4(self.half_width, self.points if n is None else n,
                     self.cutoff_inner, self.radius_mode)

    def chart(self, geometry: str = None):
        """Chart of ``geometry`` (default: the scenario's own): its
        ``tetrad``, ``connection`` and ``metric`` methods sample a grid."""
        if (geometry or self.geometry) == "minkowski":
            return MinkowskiChart()
        return SchwarzschildIsotropic(self.mass)

    def cutoff(self) -> CutoffFunction:
        return CutoffFunction(self.cutoff_inner, self.cutoff_outer)

    def echo(self) -> dict:
        return {
            "kind": self.kind, "geometry": self.geometry, "M": self.mass,
            "Lambda": self.cosmological_constant,
            "grid": {"L": self.half_width, "N": self.points},
            "resolutions": list(self.resolutions),
            "cutoff": {"r": self.cutoff_inner, "R": self.cutoff_outer},
            "radius_mode": self.radius_mode, "radii": list(self.radii),
            "generators": list(self.generators),
            "thresholds": self.thresholds,
        }


def _read(doc: dict, prefix: str = "") -> dict:
    """The values of ``doc`` by schema path, walking into its objects; a
    key with no row (a misspelling would run the default) names its path."""
    known = list(dict.fromkeys(path[len(prefix):].split(".")[0]
                               for path in SCHEMA if path.startswith(prefix)))
    values = {}
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if key not in known:
            raise ScenarioError(f"{path}: unknown key; known: "
                                f"{', '.join(known)}")
        if path in SCHEMA:
            values[path] = value
        elif isinstance(value, dict):
            values.update(_read(value, f"{path}."))
        else:
            raise ScenarioError(f"{path}: must be an object, got {value!r}")
    return values


def scenario_from_dict(doc: dict, source_hash: str = None,
                       **overrides) -> Scenario:
    """The scenario of ``doc``, its top-level keys ``overrides`` replaced.

    Every value goes through its ``SCHEMA`` row, then the rules that tie
    fields together run, all before any field is built.  ``source_hash``
    defaults to the hash of the document.
    """
    if not isinstance(doc, dict) or "scenario" not in doc:
        raise ScenarioError("scenario: a scenario document is an object "
                            "with this key")
    doc = {**doc, **overrides}
    read = _read(doc)
    if doc["scenario"] == "spherical":
        read.setdefault("generators", SPHERICAL_GENERATOR_NAMES)
    values = {path: convert(read.get(path, default), path)
              for path, (default, convert) in SCHEMA.items()}
    ns, radii = values["Ns"], values["radii"]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ScenarioError(
            f"Ns must be distinct and strictly ascending, got {list(ns)}")
    for path in ("radii", "generators"):
        if len(set(values[path])) != len(values[path]):
            raise ScenarioError(
                f"{path} must be distinct, got {list(values[path])}")
    L, r, R = values["grid.L"], values["cutoff.r"], values["cutoff.R"]
    if not math.isfinite(L * L * L * L):    # the scale of 4-volumes
        raise ScenarioError(f"grid.L: L**4 must be finite, got {L!r}")
    if not R > r:
        raise ScenarioError(
            f"cutoff.R: must exceed cutoff.r = {r!r} (R > r), got {R!r}")
    if not r < L:
        raise ScenarioError(f"grid.L: must exceed cutoff.r = {r!r} (r >= L "
                            f"swallows the box), got {L!r}")
    # the mass surface integrals need a stencil's width inside the box,
    # and spheres no smaller than one spacing of the grid they read
    h = Grid4(L, values["grid.N"]).spacing
    top = L - h
    if max(radii) >= top:
        raise ScenarioError(
            f"radii: must stay below grid.L - h = {top!r} at grid.N = "
            f"{values['grid.N']}, got {max(radii)!r}")
    for k, radius in enumerate(radii):
        if radius < h:
            raise ScenarioError(
                f"radii[{k}]: must be at least the grid spacing h = {h!r} "
                f"at grid.N = {values['grid.N']}, got {radius!r}")
    if (values["geometry"] == "schwarzschild"
            or values["scenario"] == "poincare"):
        try:
            SchwarzschildIsotropic(values["M"])
        except ValueError as exc:
            raise ScenarioError(f"M: {exc}, got {values['M']!r}") from None
    if values["geometry"] == "schwarzschild" and values["radius_mode"] == "4d":
        warnings.warn(
            "static chart is singular on the spatial axis, which a 4d "
            "excision keeps inside the norm region; radius_mode "
            "'spatial' is recommended for schwarzschild scenarios",
            stacklevel=2)
    return Scenario(
        kind=values["scenario"], geometry=values["geometry"], mass=values["M"],
        cosmological_constant=values["Lambda"], half_width=L,
        points=values["grid.N"], resolutions=ns, cutoff_inner=r,
        cutoff_outer=R, radius_mode=values["radius_mode"], radii=radii,
        generators=values["generators"],
        thresholds={key: values[f"thresholds.{key}"]
                    for key in DEFAULT_THRESHOLDS},
        # hashed once validated, so no non-finite number reaches it
        source_hash=source_hash or sha256_of_text(canonical_json(doc)))


def load_scenario(path, **overrides) -> Scenario:
    """The scenario of a JSON file, with top-level keys ``overrides``
    replaced; its hash is the file's."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    return scenario_from_dict(doc, sha256_of_file(path), **overrides)


# ---------------------------------------------------------------------------
# Sequence classification and verdicts
# ---------------------------------------------------------------------------

def fit_slope(norms, spacings):
    """Least-squares log-log slope of positive norms against spacings."""
    return float(np.polyfit(np.log(spacings), np.log(norms), 1)[0])


def classify_sequence(norms, spacings, thresholds, resolutions) -> dict:
    """Slope fit plus a qualitative kind: exact / decaying / non-decaying.

    A non-finite norm gives kind "non-finite"; a ladder that is not exact
    and has fewer than three norms gives "inconclusive" with no slope, as
    two points fit any slope; a zero norm in a sequence that is not exact
    gives "ambiguous" with no slope.  Each of these carries a ``reason``,
    naming the N where a norm is at fault.
    """
    norms = [float(v) for v in norms]
    out = {"norms": norms, "slope": None, "kind": "ambiguous"}
    for n, v in zip(resolutions, norms):
        if not math.isfinite(v):
            out["kind"] = "non-finite"
            out["reason"] = f"norm {v!r} at N = {n}"
            return out
    if max(norms) <= thresholds["exact_floor"]:
        out["kind"] = "exact"
        return out
    if len(norms) < 3:
        out["kind"] = "inconclusive"
        out["reason"] = (f"{len(norms)} norm{'s' * (len(norms) > 1)} "
                         "cannot support a slope")
        return out
    for n, v in zip(resolutions, norms):
        if v == 0.0:
            out["reason"] = (f"norm 0.0 at N = {n} in a sequence that is "
                             "not exact: no slope")
            return out
    slope = fit_slope(norms, spacings)
    out["slope"] = slope
    if slope >= thresholds["slope_min"]:
        out["kind"] = "decaying"
    elif slope <= thresholds["decay_max_slope"]:
        out["kind"] = "non-decaying"
    return out


def apply_family_verdicts(entries: dict, thresholds) -> float:
    """Set verdicts within one residual family; returns the pass threshold.

    The reference scale is the largest finite final norm among members
    that decay (or are exact); fails must clear fail_factor times the pass
    threshold.  A non-finite member fails.
    """
    finals = [e["norms"][-1] for e in entries.values()
              if e["kind"] in ("exact", "decaying")
              and math.isfinite(e["norms"][-1])]
    reference = max([thresholds["exact_floor"]] + finals)
    threshold = thresholds["pass_factor"] * reference
    for entry in entries.values():
        final = entry["norms"][-1]
        if entry["kind"] == "exact":
            entry["verdict"] = "pass"
        elif entry["kind"] == "decaying" and final <= threshold:
            entry["verdict"] = "pass"
        elif entry["kind"] == "non-finite" or (
                entry["kind"] == "non-decaying"
                and final >= thresholds["fail_factor"] * threshold):
            entry["verdict"] = "fail"
        else:
            entry["verdict"] = "inconclusive"
        entry["pass_threshold"] = threshold
    return threshold


def eom_verdict(entry: dict) -> None:
    if entry["kind"] in ("exact", "decaying"):
        entry["verdict"] = "pass"
    elif entry["kind"] in ("non-decaying", "non-finite"):
        entry["verdict"] = "fail"
    else:
        entry["verdict"] = "inconclusive"


def fold_verdicts(verdicts) -> str:
    """pass if all pass, else inconclusive if any is, else fail."""
    verdicts = list(verdicts)
    if all(v == "pass" for v in verdicts):
        return "pass"
    if "inconclusive" in verdicts:
        return "inconclusive"
    return "fail"


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

def _on(field, where):
    """``field`` (a FormField or MetricField) restricted to ``where``, its
    grid or a window of it; the restriction keeps the field's live set."""
    return dataclasses.replace(field, grid=where,
                               data=restrict(field.data, where),
                               _live=field.live)


def _refuse_empty_norm_regions(scenario: Scenario, ns, path: str) -> None:
    """Refuse the k-th N of ``ns``, as ``path.format(k)``, if its norm
    region has no node: every norm there would read 0.0 as if measured."""
    for k, n in enumerate(ns):
        grid = scenario.grid(n)
        region = grid.region_mask()
        if not (region & grid.interior_mask(region.shape)).any():
            raise ScenarioError(
                f"{path.format(k)}: the norm region at N = {n} is empty: "
                f"no node outside cutoff.r = {scenario.cutoff_inner!r} "
                f"lies {FACE_LAYERS} nodes inside every box face")


def _generator_norms(e, gens, form):
    """Symmetry-residual and coupling-term norms of each generator at one N.

    The derivative set and the test ``form`` do not depend on the
    generator, so they are built once per N.
    A residual that depends on t while e does not (a boost's) is evaluated
    one interior t slice at a time, on the windows ``t_windows`` picks from
    e and the mask: three in radius mode "spatial", every interior slice
    in "4d".  ``form`` is ``standard_test_form``, whose coupling factor
    (Upsilon alpha) (x) X_R comes from the grid's radius as the mask does,
    so it depends on t exactly when the mask does ("4d").  The factor is
    built where the residual is, except that a residual on the whole grid
    meets a factor that depends on t one interior slice at a time, so no
    factor or coupling term fills out t.  Each norm is the max over the
    windows, NaN if any is; everything, the form too, is dropped on return.
    """
    grid = e.grid
    derivatives = axis_derivatives(e, gens)
    slices = [grid.window(t)
              for t in range(FACE_LAYERS, grid.points - FACE_LAYERS)]
    factor_moves = form.cutoff.on_grid(grid).shape[0] > 1
    sym, extra = [], []
    for gen in gens:
        norms = []
        for where in t_windows(e.data, gen, grid):
            residual = symmetry_residual(_on(e, where), gen, derivatives)
            pieces = slices if factor_moves and where == grid else [where]
            terms = [F.wedge(_on(residual, piece),
                             form.factor(gen, piece)).region_norm()
                     for piece in pieces]
            norms.append((residual.region_norm(), np.max(terms)))
        snorm, enorm = np.max(norms, axis=0)
        sym.append(float(snorm))
        extra.append(float(enorm))
    return sym, extra


def _killing_norms(metric, gens) -> dict:
    """Killing-residual norm of each generator, one derivative set shared;
    a boost's is the max over the windows ``t_windows`` picks, as in
    :func:`_generator_norms`."""
    derivatives = axis_derivatives(metric, gens)
    return {gen.name: float(np.max([
        killing_residual(_on(metric, where), gen, derivatives)[1]
        for where in t_windows(metric.data, gen, metric.grid)]))
        for gen in gens}


def _stage(scenario: Scenario, item):
    """Norms of one (geometry, N, stage) item of a sweep, building only the
    fields its stage reads: the tetrad for the generator norms, the tetrad
    and connection for the field equations (torsion, then Einstein), the
    metric for the Killing norms."""
    geometry, n, stage = item
    grid, chart = scenario.grid(n), scenario.chart(geometry)
    gens = [PoincareElement.from_name(name) for name in scenario.generators]
    if stage == "killing":
        return _killing_norms(chart.metric(grid), gens)
    e = chart.tetrad(grid)
    if stage == "generators":
        return _generator_norms(e, gens,
                                standard_test_form(grid, scenario.cutoff()))
    omega = chart.connection(grid)
    return (torsion_residual(e, omega)[1], einstein_residual(
        e, omega, scenario.cosmological_constant)[1])


def _sweeps(scenario: Scenario, plans: dict, run=map) -> dict:
    """Raw norms of each geometry of ``plans``, ``{geometry: {stage: Ns}}``
    (Ns ascending) for the three stages of :func:`_stage`, from one ``run``
    over their items, largest N first so that a pool starts the longest
    first, assembled in N order.  ``run`` is ``map`` or the map of
    ``cli.worker_map``, whose workers hold an item's arrays while the
    caller holds none."""
    order = sorted(((geometry, n, stage) for geometry, stages in plans.items()
                    for stage, ns in stages.items() for n in ns),
                   key=lambda item: -item[1])
    done = dict(zip(order, run(functools.partial(_stage, scenario), order)))
    raws, names = {}, scenario.generators
    for geometry, stages in plans.items():
        gen = [done[geometry, n, "generators"] for n in stages["generators"]]
        eom = [done[geometry, n, "eom"] for n in stages["eom"]]
        raws[geometry] = {
            "sym": {name: [sym[k] for sym, _ in gen]
                    for k, name in enumerate(names)},
            "extra": {name: [extra[k] for _, extra in gen]
                      for k, name in enumerate(names)},
            "gen_spacings": [scenario.grid(n).spacing
                             for n in stages["generators"]],
            "torsion": [norm for norm, _ in eom],
            "einstein": [norm for _, norm in eom],
            "eom_spacings": [scenario.grid(n).spacing for n in stages["eom"]],
            "killing": next((done[geometry, n, "killing"]
                             for n in stages["killing"]), None)}
    return raws


def _sweep(scenario: Scenario, geometry: str, run=map, gen_ns=(),
           eom_ns=(), killing_n=None) -> dict:
    """Raw norms of one geometry's sweep (:func:`_sweeps`)."""
    return _sweeps(scenario, {geometry: {
        "generators": gen_ns, "eom": eom_ns,
        "killing": (killing_n,) if killing_n else ()}}, run)[geometry]


def _generator_section(scenario, raw, resolutions) -> dict:
    th = scenario.thresholds
    sym_entries = {k: classify_sequence(v, raw["gen_spacings"], th,
                                        resolutions)
                   for k, v in raw["sym"].items()}
    extra_entries = {k: classify_sequence(v, raw["gen_spacings"], th,
                                          resolutions)
                     for k, v in raw["extra"].items()}
    sym_thr = apply_family_verdicts(sym_entries, th)
    extra_thr = apply_family_verdicts(extra_entries, th)
    return {
        "resolutions": list(resolutions),
        "spacings": raw["gen_spacings"],
        "symmetry_residuals": sym_entries,
        "extra_eom_terms": extra_entries,
        "pass_thresholds": {"symmetry": sym_thr, "extra": extra_thr},
        "vacuous": not scenario.generators,
    }


def _eom_section(scenario, raw, resolutions) -> dict:
    th = scenario.thresholds
    out = {"resolutions": list(resolutions),
           "spacings": raw["eom_spacings"],
           "torsion": classify_sequence(raw["torsion"],
                                        raw["eom_spacings"], th,
                                        resolutions),
           "einstein": classify_sequence(raw["einstein"],
                                         raw["eom_spacings"], th,
                                         resolutions)}
    eom_verdict(out["torsion"])
    eom_verdict(out["einstein"])
    return out


def eom_study(scenario: Scenario, geometry: str, resolutions) -> dict:
    return _eom_section(scenario, _sweep(scenario, geometry,
                                         eom_ns=resolutions), resolutions)


def convergence_study(scenario: Scenario, quantities, leibniz,
                      run=map) -> dict:
    """Body of ``convergence``: one verdict per quantity ("torsion",
    "einstein", "leibniz", "symmetry:<GEN>" or "extra:<GEN>") and their fold.

    Every ladder's kind decides its verdict by decay alone, with no family
    threshold, and a decaying ladder that rises anywhere is inconclusive.
    One sweep, mapped by ``run``, serves the field equations and exactly
    the requested generators.  ``leibniz()`` gives the Leibniz ladder's
    (norms, spacings); it is called at most once, after every refusal.
    """
    resolutions = scenario.resolutions
    if len(resolutions) < 3:
        raise ScenarioError("Ns: convergence needs at least 3 resolutions, "
                            f"got {list(resolutions)}")
    quantities = list(dict.fromkeys(quantities))
    unknown = [q for q in quantities
               if q not in ("torsion", "einstein", "leibniz")
               and not q.startswith(("symmetry:", "extra:"))]
    if unknown:
        raise ScenarioError(f"--quantities: unknown quantity {unknown[0]!r}")
    names = SCHEMA["generators"][1](list(dict.fromkeys(
        q.split(":", 1)[1] for q in quantities if ":" in q)), "generators")
    eom_ns = resolutions if {"torsion", "einstein"} & {*quantities} else ()
    gen_ns = resolutions if names else ()
    if eom_ns or gen_ns:
        _refuse_empty_norm_regions(scenario, resolutions, "Ns[{}]")
    raw = (_sweep(dataclasses.replace(scenario, generators=names),
                  scenario.geometry, run, gen_ns=gen_ns, eom_ns=eom_ns)
           if eom_ns or gen_ns else {})
    entries = {}
    for quantity in quantities:
        if quantity == "leibniz":
            norms, spacings = leibniz()
        elif ":" in quantity:
            family, name = quantity.split(":", 1)
            norms = raw["sym" if family == "symmetry" else "extra"][name]
            spacings = raw["gen_spacings"]
        else:
            norms, spacings = raw[quantity], raw["eom_spacings"]
        entry = classify_sequence(norms, spacings, scenario.thresholds,
                                  resolutions)
        eom_verdict(entry)
        norms = entry["norms"]
        if (entry["kind"] not in ("exact", "non-decaying", "non-finite")
                and any(b > a for a, b in zip(norms, norms[1:]))):
            entry["verdict"] = "inconclusive"
            entry["note"] = "non-monotone residuals; refine"
        entries[quantity] = entry
    return {"resolutions": list(resolutions), "quantities": entries,
            "verdict": fold_verdicts(e["verdict"] for e in entries.values())}


def pc_study(scenario: Scenario, command: str) -> dict:
    """Body of ``pc action`` or ``pc eom``: the action S, and for "eom" the
    torsion and Einstein norms that the verdict holds to ``eom_abs_tol``
    and the coupling-term norm of the first generator, streamed over t.
    An S that overflows or is not finite fails, a reason in its place."""
    if command == "eom" and not scenario.generators:
        raise ScenarioError("generators: pc eom needs at least one generator")
    if command == "eom":
        _refuse_empty_norm_regions(scenario, [scenario.points], "grid.N")
    grid = scenario.grid()
    chart = scenario.chart()
    e, omega = chart.tetrad(grid), chart.connection(grid)
    lam = scenario.cosmological_constant
    body = {"N": scenario.points, "h": grid.spacing, "verdict": "pass"}
    # a huge Lambda overflows the integrand to inf, or its exact sum
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            action = action_pc(e, omega, lam)
            reason = None if math.isfinite(action) else f"S is {action}"
        except OverflowError:          # from math.fsum
            reason = "S overflows"
    body.update({"S": action} if reason is None
                else {"reason": reason, "verdict": "fail"})
    if command == "eom":
        body["torsion_norm"] = torsion_residual(e, omega)[1]
        body["einstein_norm"] = einstein_residual(e, omega, lam)[1]
        del omega
        gen = PoincareElement.from_name(scenario.generators[0])
        form = standard_test_form(grid, scenario.cutoff())
        _, extra = _generator_norms(e, [gen], form)
        body["extra_term_norm"] = extra[0]
        tol = scenario.thresholds["eom_abs_tol"]
        body["eom_abs_tol"] = tol
        if not max(body["torsion_norm"], body["einstein_norm"]) <= tol:
            body["verdict"] = "fail"
    return body


def mass_study(scenario: Scenario, parts=("adm", "komar")) -> dict:
    """Mass observables of the scenario's geometry at its radii: one part's
    own result, or both by name with their agreement and the recovery of
    the mass parameter.  The ADM energy must pass the positivity check,
    and a metric outside an integral's domain fails with the reason."""
    metric = scenario.chart().metric(scenario.grid())
    integrals = {"adm": adm_energy, "komar": komar_mass}
    try:
        found = {part: integrals[part](metric, scenario.radii)
                 for part in parts}
    except MassDomainError as exc:
        return {"reason": str(exc), "verdict": "fail"}
    adm, komar = found.get("adm"), found.get("komar")
    if adm is None:
        return {**komar, "verdict": "pass"}
    # time-symmetric slices carry zero momentum (general P is out of scope)
    positivity = positivity_check(adm["extrapolated"], (0.0, 0.0, 0.0))
    if komar is None:
        return {**adm, "positivity": positivity,
                "verdict": "pass" if positivity["passed"] else "fail"}
    th = scenario.thresholds
    scale = max(abs(adm["extrapolated"]), abs(komar["extrapolated"]), 1e-10)
    difference = abs(adm["extrapolated"] - komar["extrapolated"])
    agreement = {
        "relative_difference": difference / scale,
        "tolerance": th["mass_agreement_tol"],
        "verdict": ("pass" if difference <= th["mass_agreement_tol"] * scale
                    else "fail"),
    }
    expected = scenario.mass if scenario.geometry == "schwarzschild" else 0.0
    deviation = abs(adm["extrapolated"] - expected)
    recovery = {
        "expected": expected,
        "deviation": deviation,
        "tolerance": th["mass_tol"],
        "verdict": ("pass" if deviation <= th["mass_tol"] * max(expected, 1e-8)
                    else "fail"),
    }
    verdicts = (positivity["passed"], agreement["verdict"] == "pass",
                recovery["verdict"] == "pass")
    return {"adm": adm, "komar": komar, "positivity": positivity,
            "komar_adm_agreement": agreement,
            "parameter_recovery": recovery,
            "verdict": "pass" if all(verdicts) else "fail"}


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------

# Killing vectors of each geometry, in the basis of POINCARE_NAMES: all ten
# on flat space, time translation and the rotations on the exterior
KILLING_BASIS = {"minkowski": set(POINCARE_NAMES),
                 "schwarzschild": {"P0", "J12", "J13", "J23"}}


def _expected_killing(geometry: str, names) -> list:
    """The generators among ``names`` that are Killing vectors of
    ``geometry``; an alias is one when every basis element it combines is."""
    return sorted(name for name in names
                  if {*GENERATOR_ALIASES.get(name, (name,))}
                  <= KILLING_BASIS[geometry])


def _pattern_verdict(section: dict, expected, names) -> str:
    """pass iff expected generators pass and the rest cleanly fail.

    A non-finite norm is not a clean fail, and a pass where none is
    expected is a fail.
    """
    verdicts = []
    for family in ("symmetry_residuals", "extra_eom_terms"):
        for name in names:
            entry = section[family][name]
            verdict = entry["verdict"]
            want = "pass" if name in expected else "fail"
            clean = verdict == want and entry["kind"] != "non-finite"
            verdicts.append("pass" if clean
                            else "fail" if verdict == "pass" else verdict)
    return fold_verdicts(verdicts)


def run_scenario(scenario: Scenario, run=map) -> dict:
    """Report body of a scenario: its sections, masses and verdict; one
    ``run`` maps every geometry's sweep items."""
    if not scenario.generators:
        warnings.warn("scenario has no generators: vacuous pass")
        return {"scenario": scenario.echo(), "sections": {},
                "verdict": "pass", "vacuous": True}
    _refuse_empty_norm_regions(scenario, scenario.resolutions, "Ns[{}]")

    geometries = ((scenario.geometry,) if scenario.kind == "spherical"
                  else ("minkowski", "schwarzschild"))
    # flat-space symmetry residuals are identically zero, so one
    # resolution settles them; the field equations always get the ladder
    ladders = {geometry: (scenario.resolutions if geometry == "schwarzschild"
                          else scenario.resolutions[:1])
               for geometry in geometries}
    raws = _sweeps(scenario, {
        geometry: {"generators": ns, "eom": scenario.resolutions,
                   "killing": ns[-1:]} for geometry, ns in ladders.items()},
        run)
    sections = {}
    verdicts = []
    for geometry, resolutions in ladders.items():
        raw = raws[geometry]
        section = _generator_section(scenario, raw, resolutions)
        section["eom"] = _eom_section(scenario, raw, scenario.resolutions)
        section["killing_norms"] = raw["killing"]
        expected = _expected_killing(geometry, scenario.generators)
        section["expected_killing"] = expected
        section["verdict"] = _pattern_verdict(section, expected,
                                              scenario.generators)
        eom_ok = [section["eom"]["torsion"]["verdict"],
                  section["eom"]["einstein"]["verdict"]]
        verdicts.append(section["verdict"])
        verdicts.extend(eom_ok)
        sections[geometry] = section

    body = {"scenario": scenario.echo(), "sections": sections}
    if scenario.kind == "spherical":
        masses = mass_study(scenario)
        body["masses"] = masses
        verdicts.append(masses["verdict"])

    body["verdict"] = fold_verdicts(verdicts)
    return body


def residual_csv_rows(section: dict, names) -> tuple:
    """(header, rows) for the per-generator residual table."""
    resolutions = section["resolutions"]
    header = (["generator"] + [f"norm_N{n}" for n in resolutions]
              + ["slope", "verdict"])
    rows = []
    for name in names:
        entry = section["symmetry_residuals"][name]
        rows.append([name] + [repr(v) for v in entry["norms"]]
                    + [_slope_cell(entry), entry["verdict"]])
    return header, rows


def convergence_csv_rows(body: dict) -> tuple:
    """(header, rows) for the convergence table: one row per quantity."""
    return ["quantity", "norms", "slope", "verdict"], [
        [name, repr(entry["norms"]), _slope_cell(entry), entry["verdict"]]
        for name, entry in body["quantities"].items()]


def _slope_cell(entry: dict) -> str:
    """A table's slope cell: "exact", the slope's repr, or empty where the
    ladder has no slope."""
    if entry["kind"] == "exact":
        return "exact"
    return "" if entry["slope"] is None else repr(entry["slope"])
