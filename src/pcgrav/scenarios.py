"""Scenario configuration, convergence verdicts, and the scenario runner.

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
generators on flat space (expected: all pass) and on the black-hole
exterior (expected: exactly the static-spherical four pass).  Both
geometries are static, so their fields and most residuals store one t
slice; the boosts' residuals depend on t and are reduced one t slice at a
time (see :func:`_generator_norms`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fields as F
from .action import (EquivariantTestForm, PcConfig, coupling_factor,
                     einstein_residual, torsion_residual)
from .conventions import LAMBDA_BASES
from .geometry import MinkowskiChart, SchwarzschildIsotropic
from .grid import Grid4, restrict
from .mass import (MassDomainError, adm_energy, komar_mass,
                   positivity_check)
from .report import sha256_of_file, sha256_of_text, canonical_json
from .symmetry import (POINCARE_GENERATOR_NAMES, SPHERICAL_GENERATOR_NAMES,
                       CutoffFunction, PoincareElement, axis_derivatives,
                       killing_residual, symmetry_residual, t_windows)

SCENARIO_KINDS = ("poincare", "spherical")
GEOMETRIES = ("schwarzschild", "minkowski")

DEFAULT_THRESHOLDS = {
    "slope_min": 1.7,
    "decay_max_slope": 0.5,
    "pass_factor": 4.0,
    "fail_factor": 10.0,
    "exact_floor": 1e-11,
    "eom_abs_tol": 1e-8,
    "mass_tol": 0.01,
    "mass_agreement_tol": 0.02,
}


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario document."""


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; :func:`scenario_from_dict` fills in defaults."""
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

    def __post_init__(self):
        """Validate the whole scenario before any field is built.

        Grid, cutoff and generator rules live in ``Grid4``,
        ``CutoffFunction`` and ``PoincareElement``; their errors come back
        as ``ScenarioError`` naming the offending field.
        """
        if self.kind not in SCENARIO_KINDS:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        if self.geometry not in GEOMETRIES:
            raise ScenarioError(f"unknown geometry {self.geometry!r}")
        if self.radius_mode not in ("4d", "spatial"):
            raise ScenarioError("radius_mode must be '4d' or 'spatial'")
        numbers = [("M", self.mass), ("Lambda", self.cosmological_constant),
                   ("L", self.half_width), ("r", self.cutoff_inner),
                   ("R", self.cutoff_outer)]
        for name, value in numbers + [("radii", r) for r in self.radii]:
            if not math.isfinite(value):
                raise ScenarioError(f"{name} must be finite, got {value!r}")
        if self.cutoff_inner >= self.half_width:
            raise ScenarioError("excluded ball swallows the box (r >= L)")
        ns = self.resolutions
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ScenarioError(
                f"Ns must be distinct and strictly ascending, got {list(ns)}")
        _field("cutoff r, R", self.cutoff)
        box = _field(f"grid N = {self.points}", self.grid, self.points)
        for n in ns:
            _field(f"Ns entry {n}", self.grid, n)
        for name in self.generators:
            _field("generators", PoincareElement.from_name, name)
        if len(set(self.generators)) != len(self.generators):
            raise ScenarioError(
                f"generators must be distinct, got {list(self.generators)}")
        if not self.radii:
            raise ScenarioError("radii must list at least one radius")
        for i, rho in enumerate(self.radii):
            if not rho > 0.0:
                raise ScenarioError(
                    f"radii[{i}]: must be positive, got {rho!r}")
        if len(set(self.radii)) != len(self.radii):
            raise ScenarioError(
                f"radii must be distinct, got {list(self.radii)}")
        # the mass surface integrals need a stencil's width inside the box
        if max(self.radii) >= box.half_width - box.spacing:
            raise ScenarioError(
                f"radii must stay below L - h = "
                f"{box.half_width - box.spacing!r} at N = {self.points}, "
                f"got {max(self.radii)!r}")
        if self.geometry == "schwarzschild" and self.radius_mode == "4d":
            warnings.warn(
                "static chart is singular on the spatial axis, which a 4d "
                "excision keeps inside the norm region; radius_mode "
                "'spatial' is recommended for schwarzschild scenarios",
                stacklevel=3)

    def grid(self, n=None) -> Grid4:
        return Grid4(self.half_width, self.points if n is None else n,
                     self.cutoff_inner)

    def chart(self, geometry: str = None):
        """Chart of ``geometry`` (default: the scenario's own): its
        ``tetrad``, ``connection`` and ``metric`` methods sample a grid."""
        if (geometry or self.geometry) == "minkowski":
            return MinkowskiChart()
        return SchwarzschildIsotropic(self.mass)

    def cutoff(self) -> CutoffFunction:
        return CutoffFunction(self.cutoff_inner, self.cutoff_outer)

    def config(self, n=None) -> PcConfig:
        return PcConfig(self.cosmological_constant, self.grid(n),
                        self.radius_mode)

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


def _field(name: str, build, *args):
    """``build(*args)``; a value it cannot take is a ScenarioError that
    names the field."""
    try:
        return build(*args)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{name}: {exc.args[0]}") from None


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"must be an object, got {value!r}")
    return value


def _resolutions(value) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise TypeError(f"must be a non-empty list, got {value!r}")
    return tuple(int(n) for n in value)


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {number!r}")
    return number


def _thresholds(doc: dict) -> dict:
    """DEFAULT_THRESHOLDS with the document's overrides, each a finite
    float; a key the gates do not read is an error, not a silent default."""
    merged = dict(DEFAULT_THRESHOLDS)
    for key, value in _field("thresholds", _object,
                             doc.get("thresholds", {})).items():
        if key not in DEFAULT_THRESHOLDS:
            raise ScenarioError(
                f"thresholds.{key}: unknown threshold; known: "
                f"{', '.join(DEFAULT_THRESHOLDS)}")
        merged[key] = _field(f"thresholds.{key}", _finite, value)
    return merged


# the keys a scenario document may hold, at the top and in its objects
DOCUMENT_KEYS = ("scenario", "geometry", "M", "Lambda", "grid", "Ns",
                 "cutoff", "radius_mode", "radii", "generators", "thresholds")
GRID_KEYS = ("L", "N")
CUTOFF_KEYS = ("r", "R")


def _known_keys(doc: dict, prefix: str, known: tuple) -> dict:
    """``doc``, whose every key is in ``known``; a key that nothing reads
    (a misspelling would run the default) is an error naming its path."""
    for key in doc:
        if key not in known:
            raise ScenarioError(f"{prefix}{key}: unknown key; known: "
                                f"{', '.join(known)}")
    return doc


def scenario_from_dict(doc: dict, source_hash: str = None) -> Scenario:
    if not isinstance(doc, dict) or "scenario" not in doc:
        raise ScenarioError("scenario document needs a 'scenario' key")
    _known_keys(doc, "", DOCUMENT_KEYS)
    grid = _known_keys(_field("grid", _object, doc.get("grid", {})),
                       "grid.", GRID_KEYS)
    cutoff = _known_keys(_field("cutoff", _object, doc.get("cutoff", {})),
                         "cutoff.", CUTOFF_KEYS)
    kind = doc["scenario"]
    try:
        scenario = Scenario(
            kind=kind,
            geometry=doc.get("geometry", "schwarzschild"),
            mass=_field("M", float, doc.get("M", 1.0)),
            cosmological_constant=_field("Lambda", float,
                                         doc.get("Lambda", 0.0)),
            half_width=_field("grid.L", float, grid.get("L", 20.0)),
            points=_field("grid.N", int, grid.get("N", 33)),
            resolutions=_field("Ns", _resolutions,
                               doc.get("Ns", (17, 25, 33))),
            cutoff_inner=_field("cutoff.r", float, cutoff.get("r", 6.0)),
            cutoff_outer=_field("cutoff.R", float, cutoff.get("R", 10.0)),
            radius_mode=doc.get("radius_mode", "4d"),
            radii=_field("radii", lambda v: tuple(float(r) for r in v),
                         doc.get("radii", (8.0, 12.0, 16.0))),
            generators=(_field("generators", tuple, doc["generators"])
                        if "generators" in doc
                        else SPHERICAL_GENERATOR_NAMES if kind == "spherical"
                        else POINCARE_GENERATOR_NAMES),
            thresholds=_thresholds(doc),
            source_hash=source_hash or "inline",
        )
        if source_hash is None:
            # hashed once validated, so no non-finite number reaches it
            object.__setattr__(scenario, "source_hash",
                               sha256_of_text(canonical_json(doc)))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"bad scenario document: {exc}") from None
    return scenario


def load_scenario(path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    return scenario_from_dict(doc, source_hash=sha256_of_file(path))


# ---------------------------------------------------------------------------
# Test form
# ---------------------------------------------------------------------------

def standard_test_form(grid: Grid4, cutoff: CutoffFunction, generator,
                       mode: str) -> EquivariantTestForm:
    """Cutoff profile on every coordinate 2-plane: a maximally generic
    test form whose support is exactly the cutoff's."""
    ups = cutoff.on_grid(grid, mode)
    alpha = F.scalar_form(grid, 2, {st: ups for st in LAMBDA_BASES[2]})
    return EquivariantTestForm(alpha, generator)


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
    grid or a window of it."""
    return dataclasses.replace(field, grid=where,
                               data=restrict(field.data, where))


def _generator_norms(e, gens, cutoff, cfg: PcConfig):
    """Symmetry-residual and coupling-term norms of each generator at one N.

    The derivative set and the test form do not depend on the generator,
    so they are built once, and the coupling factor (Upsilon alpha) (x) X_R
    and its live components once per generator.  A residual that depends
    on t while e does not (a boost's) is evaluated one interior t slice at
    a time (``t_windows``), and each norm is the max over the slices, NaN
    if any is.  Everything is dropped on return, before the field equations
    of the same N.
    """
    alpha = standard_test_form(e.grid, cutoff, gens[0], cfg.radius_mode).alpha
    derivatives = axis_derivatives(e.data, e.grid, gens)
    region = cfg.region_kwargs()
    sym, extra = [], []
    for gen in gens:
        # never None: a pure translation borrows REFERENCE_PLANE
        factor = coupling_factor(EquivariantTestForm(alpha, gen), cutoff, cfg)
        live = F.live_components(factor.data)
        norms = []
        for where in t_windows(e.data, gen, e.grid):
            residual = symmetry_residual(_on(e, where), gen, derivatives)
            term = F.wedge(residual, _on(factor, where), b_live=live)
            norms.append((residual.region_norm(**region),
                          term.region_norm(**region)))
        snorm, enorm = np.max(norms, axis=0)
        sym.append(float(snorm))
        extra.append(float(enorm))
    return sym, extra


def _killing_norms(scenario: Scenario, metric, gens) -> dict:
    """Killing-residual norm of each generator, one derivative set shared;
    streamed over t slices as in :func:`_generator_norms`."""
    derivatives = axis_derivatives(metric.data, metric.grid, gens)
    return {gen.name: float(np.max([
        killing_residual(_on(metric, where), gen, r=scenario.cutoff_inner,
                         mode=scenario.radius_mode,
                         derivatives=derivatives)[1]
        for where in t_windows(metric.data, gen, metric.grid)]))
        for gen in gens}


def _sweep(scenario: Scenario, geometry: str, gen_ns=(), eom_ns=(),
           killing_n: int = None) -> dict:
    """One pass over resolutions, building each field only where it is read.

    No residual is held past its norm, and a t-dependent residual of
    static fields only one t slice at a time.
    """
    gens = [PoincareElement.from_name(name) for name in scenario.generators]
    cutoff = scenario.cutoff()
    chart = scenario.chart(geometry)
    raw = {
        "sym": {gen.name: [] for gen in gens},
        "extra": {gen.name: [] for gen in gens},
        "gen_spacings": [],
        "torsion": [], "einstein": [], "eom_spacings": [],
        "killing": None,
    }
    every_n = sorted(set(gen_ns) | set(eom_ns)
                     | ({killing_n} if killing_n else set()))
    for n in every_n:
        grid = scenario.grid(n)
        cfg = scenario.config(n)
        if n in gen_ns or n in eom_ns:
            e = chart.tetrad(grid)
        if n in gen_ns:
            raw["gen_spacings"].append(grid.spacing)
            sym, extra = _generator_norms(e, gens, cutoff, cfg)
            for gen, snorm, enorm in zip(gens, sym, extra):
                raw["sym"][gen.name].append(snorm)
                raw["extra"][gen.name].append(enorm)
        if n in eom_ns:
            raw["eom_spacings"].append(grid.spacing)
            omega = chart.connection(grid)
            _, tn = torsion_residual(e, omega, cfg)
            raw["torsion"].append(tn)
            _, en = einstein_residual(e, omega, cfg)
            raw["einstein"].append(en)
        if n == killing_n:
            raw["killing"] = _killing_norms(scenario, chart.metric(grid), gens)
    return raw


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


def generator_study(scenario: Scenario, geometry: str, resolutions) -> dict:
    """Symmetry-residual and coupling-term norms per generator per N."""
    raw = _sweep(scenario, geometry, gen_ns=resolutions)
    return _generator_section(scenario, raw, resolutions)


def eom_study(scenario: Scenario, geometry: str, resolutions) -> dict:
    raw = _sweep(scenario, geometry, eom_ns=resolutions)
    return _eom_section(scenario, raw, resolutions)


def mass_study(scenario: Scenario, geometry: str) -> dict:
    metric = scenario.chart(geometry).metric(scenario.grid())
    try:
        adm = adm_energy(metric, scenario.radii)
        komar = komar_mass(metric, scenario.radii)
    except MassDomainError as exc:
        return {"reason": str(exc), "verdict": "fail"}
    th = scenario.thresholds
    # time-symmetric slices carry zero momentum (general P is out of scope)
    positivity = positivity_check(adm["extrapolated"], (0.0, 0.0, 0.0))
    scale = max(abs(adm["extrapolated"]), abs(komar["extrapolated"]), 1e-10)
    difference = abs(adm["extrapolated"] - komar["extrapolated"])
    agreement = {
        "relative_difference": difference / scale,
        "tolerance": th["mass_agreement_tol"],
        "verdict": ("pass" if difference <= th["mass_agreement_tol"] * scale
                    else "fail"),
    }
    expected = scenario.mass if geometry == "schwarzschild" else 0.0
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

EXPECTED_KILLING = {
    ("poincare", "minkowski"): set(POINCARE_GENERATOR_NAMES),
    ("poincare", "schwarzschild"): set(SPHERICAL_GENERATOR_NAMES),
    ("spherical", "minkowski"): set(SPHERICAL_GENERATOR_NAMES),
    ("spherical", "schwarzschild"): set(SPHERICAL_GENERATOR_NAMES),
}


def _pattern_verdict(section: dict, expected: set, names) -> str:
    """pass iff expected generators pass and the rest cleanly fail.

    A non-finite norm is not a clean fail.
    """
    verdicts = []
    for family in ("symmetry_residuals", "extra_eom_terms"):
        for name in names:
            entry = section[family][name]
            want = "pass" if name in expected else "fail"
            clean = (entry["verdict"] == want
                     and entry["kind"] != "non-finite")
            verdicts.append("pass" if clean else entry["verdict"])
    return fold_verdicts(verdicts)


def run_scenario(scenario: Scenario) -> dict:
    """Report body of a scenario: its sections, masses and verdict."""
    if not scenario.generators:
        warnings.warn("scenario has no generators: vacuous pass")
        return {"scenario": scenario.echo(), "sections": {},
                "verdict": "pass", "vacuous": True}

    geometries = ((scenario.geometry,) if scenario.kind == "spherical"
                  else ("minkowski", "schwarzschild"))
    sections = {}
    verdicts = []
    for geometry in geometries:
        # flat-space symmetry residuals are identically zero, so one
        # resolution settles them; the field equations always get the ladder
        resolutions = (scenario.resolutions
                       if geometry == "schwarzschild"
                       else scenario.resolutions[:1])
        raw = _sweep(scenario, geometry, gen_ns=resolutions,
                     eom_ns=scenario.resolutions,
                     killing_n=max(resolutions))
        section = _generator_section(scenario, raw, resolutions)
        section["eom"] = _eom_section(scenario, raw, scenario.resolutions)
        section["killing_norms"] = raw["killing"]
        expected = EXPECTED_KILLING[(scenario.kind, geometry)]
        section["expected_killing"] = sorted(expected)
        section["verdict"] = _pattern_verdict(section, expected,
                                              scenario.generators)
        eom_ok = [section["eom"]["torsion"]["verdict"],
                  section["eom"]["einstein"]["verdict"]]
        verdicts.append(section["verdict"])
        verdicts.extend(eom_ok)
        sections[geometry] = section

    body = {"scenario": scenario.echo(), "sections": sections}
    if scenario.kind == "spherical":
        masses = mass_study(scenario, scenario.geometry)
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
        slope = entry["slope"]
        slope_text = ("exact" if entry["kind"] == "exact"
                      else "" if slope is None else repr(slope))
        rows.append([name] + [repr(v) for v in entry["norms"]]
                    + [slope_text, entry["verdict"]])
    return header, rows
