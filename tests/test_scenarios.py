"""Scenario configs, verdict logic, and small end-to-end runs."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from pcgrav.cli import VERDICT_CODES
from pcgrav import scenarios
from pcgrav.scenarios import (DEFAULT_THRESHOLDS, ScenarioError,
                              apply_family_verdicts, classify_sequence,
                              convergence_csv_rows, convergence_study,
                              load_scenario, residual_csv_rows, run_scenario,
                              scenario_from_dict)

ROOT = Path(__file__).resolve().parent.parent
TH = dict(DEFAULT_THRESHOLDS)
NS = (9, 13, 17)


def test_minimal_document_loads_with_defaults():
    doc = {"scenario": "spherical", "M": 1.0, "Lambda": 0.0,
           "grid": {"L": 20.0, "N": 33}, "cutoff": {"r": 6.0, "R": 10.0}}
    with pytest.warns(UserWarning, match="spatial"):
        sc = scenario_from_dict(doc)
    assert sc.kind == "spherical" and sc.points == 33
    assert sc.cutoff_inner == 6.0 and sc.radius_mode == "4d"
    assert sc.generators == ("P0", "L1", "L2", "L3")
    assert sc.thresholds["slope_min"] == 1.7


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError, match="^scenario: must be one of"):
        scenario_from_dict({"scenario": "cylinder"})
    with pytest.raises(ScenarioError, match="R > r"):
        scenario_from_dict({"scenario": "spherical",
                            "cutoff": {"r": 6.0, "R": 6.0}})
    with pytest.raises(ScenarioError, match="r >= L"):
        scenario_from_dict({"scenario": "spherical",
                            "grid": {"L": 5.0, "N": 9},
                            "cutoff": {"r": 6.0, "R": 10.0}})
    with pytest.raises(ScenarioError, match="scenario"):
        scenario_from_dict({"geometry": "minkowski"})


@pytest.mark.parametrize("overrides, field", [
    ({"Ns": [9, 9, 9]}, "Ns"),
    ({"Ns": [13, 9]}, "Ns"),
    ({"Ns": [6, 8, 10]}, "Ns"),
    ({"grid": {"L": 8.0, "N": 12}}, "grid.N"),
    ({"radii": [4.0, 5.0, 7.0]}, "radii"),
    ({"M": float("nan")}, "M"),
    ({"Lambda": float("-inf")}, "Lambda"),
    ({"radii": [4.0, float("inf")]}, "radii"),
    ({"generators": ["P0", "Q9"]}, "generators"),
    ({"radii": []}, "radii"),
    ({"radii": [4.0, 5.0, 4.0]}, "radii must be distinct"),
    ({"generators": ["P0", "P0"]}, "generators"),
])
def test_scenario_validation_names_the_field(overrides, field):
    with pytest.raises(ScenarioError, match=f"^{field}"):
        small_scenario(**overrides)


@pytest.mark.parametrize("path, where", [
    ("raddi", {}),
    ("radius_mod", {}),
    ("grid.n", {"grid": {"L": 8.0, "N": 13}}),
    ("cutoff.rr", {"cutoff": {"r": 3.0, "R": 5.0}}),
])
def test_unknown_keys_are_refused_naming_the_path(path, where):
    *outer, key = path.split(".")
    doc = {"scenario": "spherical", "radius_mode": "spatial", **where}
    (doc[outer[0]] if outer else doc)[key] = 1.0
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    known = {"grid": "L, N", "cutoff": "r, R"}.get(
        outer[0] if outer else None, "scenario, geometry, M, Lambda, grid")
    assert str(info.value).startswith(f"{path}: unknown key; known: {known}")


def test_misspelled_keys_of_a_shipped_document_are_refused():
    doc = json.loads(
        (ROOT / "scenarios" / "spherical_schwarzschild.json").read_text())
    scenario_from_dict(doc)
    for key, value in (("radius_mod", "4d"), ("raddi", [1.0])):
        with pytest.raises(ScenarioError, match=f"^{key}: unknown key"):
            scenario_from_dict({**doc, key: value})
    grid = {**doc["grid"], "n": 5}
    with pytest.raises(ScenarioError,
                       match="^grid.n: unknown key; known: L, N$"):
        scenario_from_dict({**doc, "grid": grid})


def test_threshold_signs():
    # slopes take any sign; factors, floors and tolerances must be positive
    sc = small_scenario(thresholds={"slope_min": -1.0,
                                    "decay_max_slope": -3.0})
    assert sc.thresholds["slope_min"] == -1.0
    assert sc.thresholds["decay_max_slope"] == -3.0
    for key in ("pass_factor", "fail_factor", "exact_floor", "eom_abs_tol",
                "mass_tol", "mass_agreement_tol"):
        for bad in (0, -1.0):
            with pytest.raises(ScenarioError, match=(
                    rf"^thresholds\.{key}: must be positive, "
                    rf"got {float(bad)!r}$")):
                small_scenario(thresholds={key: bad})


def test_overrides_replace_document_keys_and_keep_the_file_hash():
    path = "scenarios/eom_schwarzschild.json"
    plain = load_scenario(path)
    sc = load_scenario(path, Ns=[9, 13, 17], radii=[6.0, 9.0])
    assert sc == dataclasses.replace(plain, resolutions=(9, 13, 17),
                                     radii=(6.0, 9.0))
    with pytest.raises(ScenarioError, match=r"^radii\[1\]: must be finite"):
        load_scenario(path, radii=[6.0, float("nan")])
    with pytest.raises(ScenarioError, match="^Nss: unknown key"):
        load_scenario(path, Nss=[9, 13, 17])


def test_shipped_scenarios_load():
    for name in ("minkowski_lambda1", "spherical_schwarzschild",
                 "poincare_schwarzschild", "eom_schwarzschild"):
        sc = load_scenario(f"scenarios/{name}.json")
        assert len(sc.source_hash) == 64


def test_classify_exact_and_decaying():
    hs = [0.5, 0.25, 0.125]
    exact = classify_sequence([0.0, 1e-14, 0.0], hs, TH, NS)
    assert exact["kind"] == "exact"
    entry = classify_sequence([4e-2, 1e-2, 2.5e-3], hs, TH, NS)
    assert entry["kind"] == "decaying"
    assert entry["slope"] == pytest.approx(2.0, abs=0.01)
    flat = classify_sequence([3e-2, 3.1e-2, 2.9e-2], hs, TH, NS)
    assert flat["kind"] == "non-decaying"
    mid = classify_sequence([4e-2, 2.4e-2, 1.9e-2], hs, TH, NS)
    assert mid["kind"] == "ambiguous"


def test_family_verdicts_separate_pass_and_fail():
    hs = [0.5, 0.25, 0.125]
    entries = {
        "good": classify_sequence([4e-4, 1e-4, 2.5e-5], hs, TH, NS),
        "zero": classify_sequence([0.0, 0.0, 0.0], hs, TH, NS),
        "bad": classify_sequence([6e-2, 6.2e-2, 6.1e-2], hs, TH, NS),
        "weak": classify_sequence([3e-4, 3.2e-4, 3.1e-4], hs, TH, NS),
    }
    threshold = apply_family_verdicts(entries, TH)
    assert threshold == pytest.approx(TH["pass_factor"] * 2.5e-5)
    assert entries["good"]["verdict"] == "pass"
    assert entries["zero"]["verdict"] == "pass"
    assert entries["bad"]["verdict"] == "fail"      # above 10x threshold
    assert entries["weak"]["verdict"] == "inconclusive"  # in the gap


def test_non_finite_norm_fails_naming_its_n():
    from pcgrav.scenarios import eom_verdict
    hs = [0.5, 0.25, 0.125]
    for bad in (float("nan"), float("inf")):
        entry = classify_sequence([1e-3, bad, 1e-5], hs, TH, NS)
        assert entry["kind"] == "non-finite" and entry["slope"] is None
        assert entry["reason"] == f"norm {bad!r} at N = 13"
        family = {"good": classify_sequence([4e-4, 1e-4, 2.5e-5], hs, TH,
                                            NS),
                  "bad": dict(entry)}
        apply_family_verdicts(family, TH)
        assert family["bad"]["verdict"] == "fail"
        eom_verdict(entry)
        assert entry["verdict"] == "fail"


def test_fewer_than_three_norms_support_no_slope():
    from pcgrav.scenarios import eom_verdict
    for norms, reason in (([0.02, 0.0042], "2 norms cannot support a slope"),
                          ([0.02], "1 norm cannot support a slope")):
        entry = classify_sequence(norms, [0.5, 0.25][:len(norms)], TH, NS)
        assert entry == {"norms": norms, "slope": None,
                         "kind": "inconclusive", "reason": reason}
        family = {"short": dict(entry)}
        apply_family_verdicts(family, TH)
        assert family["short"]["verdict"] == "inconclusive"
        eom_verdict(entry)
        assert entry["verdict"] == "inconclusive"
    # exact and non-finite ladders need no slope
    assert classify_sequence([0.0, 1e-14], [0.5, 0.25], TH,
                             NS)["kind"] == "exact"
    assert classify_sequence([0.02, float("nan")], [0.5, 0.25], TH,
                             NS)["kind"] == "non-finite"


def test_two_resolution_torsion_ladder_is_inconclusive():
    # two points gave this torsion ladder a slope of 5.80 and a pass
    body = run_scenario(small_scenario(scenario="poincare"))
    torsion = body["sections"]["schwarzschild"]["eom"]["torsion"]
    assert torsion["kind"] == "inconclusive" and torsion["slope"] is None
    assert torsion["verdict"] == "inconclusive"
    assert torsion["reason"] == "2 norms cannot support a slope"
    assert body["verdict"] == "inconclusive"


def test_zero_norm_in_a_sequence_that_is_not_exact_is_inconclusive():
    from pcgrav.scenarios import eom_verdict
    hs = [0.5, 0.25, 0.125]
    entry = classify_sequence([1e-3, 0.0, 1e-5], hs, TH, NS)
    assert entry["kind"] == "ambiguous" and entry["slope"] is None
    assert "N = 13" in entry["reason"]
    family = {"zero": dict(entry)}
    apply_family_verdicts(family, TH)
    assert family["zero"]["verdict"] == "inconclusive"
    eom_verdict(entry)
    assert entry["verdict"] == "inconclusive"


def test_family_threshold_ignores_non_finite_finals():
    decaying = {"norms": [4e-4, 1e-4, 2.5e-5], "kind": "decaying"}
    broken = {"norms": [4e-4, 1e-4, float("nan")], "kind": "decaying"}
    for order in (("ok", "nan"), ("nan", "ok")):
        entries = {name: dict(decaying if name == "ok" else broken)
                   for name in order}
        threshold = apply_family_verdicts(entries, TH)
        assert threshold == TH["pass_factor"] * 2.5e-5
        assert entries["nan"]["verdict"] == "inconclusive"


def test_finite_ladders_keep_their_entries():
    hs = [0.5, 0.25, 0.125]
    norms = [4e-2, 1e-2, 2.5e-3]
    slope = float(np.polyfit(np.log(hs), np.log(norms), 1)[0])
    want = {"norms": norms, "slope": slope, "kind": "decaying"}
    assert classify_sequence(norms, hs, TH, NS) == want
    flat = classify_sequence([0.0, 1e-14, 0.0], hs, TH, NS)
    assert flat == {"norms": [0.0, 1e-14, 0.0], "slope": None,
                    "kind": "exact"}


def small_scenario(**overrides):
    doc = {"scenario": "spherical", "geometry": "schwarzschild", "M": 0.5,
           "grid": {"L": 8.0, "N": 13}, "Ns": [9, 13],
           "cutoff": {"r": 3.0, "R": 5.0}, "radius_mode": "spatial",
           "radii": [4.0, 5.0, 6.0]}
    doc.update(overrides)
    return scenario_from_dict(doc)


def test_vacuous_generator_list_passes_with_warning():
    sc = small_scenario(generators=[])
    with pytest.warns(UserWarning, match="vacuous"):
        body = run_scenario(sc)
    assert body["verdict"] == "pass" and body["vacuous"]


def test_run_scenario_by_name_with_params():
    body = run_scenario(scenario_from_dict({
        "scenario": "spherical", "geometry": "minkowski", "M": 0.0,
        "grid": {"L": 8.0, "N": 9}, "Ns": [9],
        "cutoff": {"r": 3.0, "R": 5.0}, "radius_mode": "spatial",
        "radii": [3.0, 4.0, 5.0]}))
    section = body["sections"]["minkowski"]
    for entry in section["symmetry_residuals"].values():
        assert entry["verdict"] == "pass" and entry["kind"] == "exact"
    assert body["masses"]["adm"]["extrapolated"] == 0.0
    assert body["verdict"] == "pass"
    assert VERDICT_CODES[body["verdict"]] == 0


def test_minkowski_is_spherically_symmetric_too():
    # the spherical scenario does not single out the black hole: flat data
    # passes it with zero masses
    sc = small_scenario(geometry="minkowski", M=0.0)
    body = run_scenario(sc)
    assert body["verdict"] == "pass"
    assert abs(body["masses"]["komar"]["extrapolated"]) < 1e-12
    assert body["masses"]["parameter_recovery"]["verdict"] == "pass"


def test_expected_killing_vectors_follow_the_geometry_and_aliases():
    every = ["dt", "P0", "P1", "K1", "J01", "L2", "J12", "J13", "J23"]
    assert scenarios._expected_killing("minkowski", every) == sorted(every)
    assert scenarios._expected_killing("schwarzschild", every) == [
        "J12", "J13", "J23", "L2", "P0", "dt"]


def test_flat_space_expects_every_generator_of_a_spherical_document():
    body = run_scenario(small_scenario(geometry="minkowski", M=0.0,
                                       generators=["P0", "P1", "K1"]))
    section = body["sections"]["minkowski"]
    assert section["expected_killing"] == ["K1", "P0", "P1"]
    assert section["verdict"] == "pass"


def test_an_unexpected_killing_vector_fails_its_section(monkeypatch):
    # P1 is no Killing vector of the exterior: its decay there is a fault
    # of the run, not a pass
    def sweep(scenario, geometry, gen_ns=(), eom_ns=(), killing_n=None):
        decaying = ([0.0] * len(gen_ns) if geometry == "minkowski"
                    else [4e-2, 1e-2, 2.5e-3])
        return {"sym": {name: decaying for name in scenario.generators},
                "extra": {name: decaying for name in scenario.generators},
                "gen_spacings": [scenario.grid(n).spacing for n in gen_ns],
                "torsion": [0.0] * len(eom_ns),
                "einstein": [0.0] * len(eom_ns),
                "eom_spacings": [scenario.grid(n).spacing for n in eom_ns],
                "killing": {name: 0.0 for name in scenario.generators}}

    monkeypatch.setattr(scenarios, "_sweeps", lambda scenario, plans, run: {
        geometry: sweep(scenario, geometry, stages["generators"],
                        stages["eom"]) for geometry, stages in plans.items()})
    body = run_scenario(small_scenario(
        scenario="poincare", Ns=[9, 13, 17],
        generators=["P0", "L1", "L2", "L3", "P1"]))
    exterior = body["sections"]["schwarzschild"]
    assert exterior["symmetry_residuals"]["P1"]["verdict"] == "pass"
    assert exterior["expected_killing"] == ["L1", "L2", "L3", "P0"]
    assert exterior["verdict"] == "fail" and body["verdict"] == "fail"
    assert body["sections"]["minkowski"]["verdict"] == "pass"


def test_a_decaying_ladder_that_rises_is_inconclusive():
    calls = []

    def leibniz():
        calls.append(1)
        return [16.0, 0.5, 0.6], [4.0, 2.0, 1.0]

    body = convergence_study(small_scenario(Ns=[9, 13, 17]),
                             ["leibniz", "leibniz"], leibniz)
    entry = body["quantities"]["leibniz"]
    assert entry["kind"] == "decaying" and entry["slope"] >= 1.7
    assert entry["verdict"] == "inconclusive"
    assert entry["note"] == "non-monotone residuals; refine"
    assert body["verdict"] == "inconclusive" and calls == [1]


def test_a_ladder_without_a_slope_leaves_its_slope_cell_empty():
    norms = [1e-3, 0.0, 1e-5]
    body = convergence_study(small_scenario(Ns=[9, 13, 17]), ["leibniz"],
                             lambda: (norms, [4.0, 2.0, 1.0]))
    assert body["quantities"]["leibniz"]["slope"] is None
    assert convergence_csv_rows(body) == (
        ["quantity", "norms", "slope", "verdict"],
        [["leibniz", repr(norms), "", "inconclusive"]])


def test_convergence_refuses_a_bad_generator_before_the_leibniz_ladder():
    def refuse():
        raise AssertionError("the ladder ran before a refusal")

    with pytest.raises(ScenarioError, match=r"^generators\[1\]: must be "):
        convergence_study(small_scenario(Ns=[9, 13, 17]),
                          ["leibniz", "symmetry:K1", "extra:K1", "extra:Q9"],
                          refuse)


def test_every_verdict_is_recomputable_from_reported_numbers():
    # three Ns: a two-norm ladder is inconclusive whatever its numbers
    sc = small_scenario(Ns=[9, 13, 17])
    body = run_scenario(sc)
    section = body["sections"]["schwarzschild"]
    th = body["scenario"]["thresholds"]
    for family in ("symmetry_residuals", "extra_eom_terms"):
        entries = {k: dict(v) for k, v in section[family].items()}
        recomputed = {
            k: classify_sequence(v["norms"], section["spacings"], th,
                                 section["resolutions"])
            for k, v in entries.items()}
        apply_family_verdicts(recomputed, th)
        for name in entries:
            assert recomputed[name]["verdict"] == \
                section[family][name]["verdict"]


def test_report_body_is_json_serializable_and_stable():
    sc = small_scenario()
    body1 = run_scenario(sc)
    body2 = run_scenario(sc)
    canon1 = json.dumps(body1, sort_keys=True)
    canon2 = json.dumps(body2, sort_keys=True)
    assert canon1 == canon2


def test_residual_csv_rows_shape():
    sc = small_scenario()
    body = run_scenario(sc)
    header, rows = residual_csv_rows(
        body["sections"]["schwarzschild"], sc.generators)
    assert header == ["generator", "norm_N9", "norm_N13", "slope", "verdict"]
    assert [row[0] for row in rows] == list(sc.generators)
    # numbers in the table round-trip through repr
    assert float(rows[1][1]) == \
        body["sections"]["schwarzschild"][
            "symmetry_residuals"]["L1"]["norms"][0]


def test_non_finite_mass_study_is_a_fail_verdict():
    from pcgrav.scenarios import mass_study
    sc = small_scenario(M=1e308, grid={"L": 8.0, "N": 9}, Ns=[5, 9],
                        radii=[4.0, 5.0])
    masses = mass_study(sc)
    assert masses["verdict"] == "fail"
    assert "slice is not asymptotically flat" in masses["reason"]
    json.dumps(masses, allow_nan=False)


@pytest.mark.parametrize("part, skipped", [("adm", "komar_mass"),
                                            ("komar", "adm_energy")])
def test_one_mass_part_computes_that_integral_alone(monkeypatch, part,
                                                    skipped):
    import pcgrav.scenarios as scenarios

    def refuse(*args):
        raise AssertionError(f"{skipped} ran for the {part} part")

    monkeypatch.setattr(scenarios, skipped, refuse)
    sc = small_scenario(grid={"L": 8.0, "N": 13}, radii=[4.0, 5.0, 6.0])
    body = scenarios.mass_study(sc, parts=(part,))
    assert body["verdict"] == "pass"
    assert body["radii"] == [4.0, 5.0, 6.0]
    assert ("positivity" in body) == (part == "adm")


def test_report_writes_non_finite_numbers_as_null():
    from pcgrav.report import canonical_json
    text = canonical_json({"a": float("nan"), "b": [1.5, float("-inf")],
                           "c": (float("inf"),), "d": "nan"})
    assert json.loads(text) == {"a": None, "b": [1.5, None], "c": [None],
                                "d": "nan"}


def test_sweep_does_generator_independent_work_once(monkeypatch):
    import pcgrav.grid as grid_module
    import pcgrav.symmetry as symmetry
    from pcgrav.scenarios import _sweep
    from pcgrav.symmetry import POINCARE_GENERATOR_NAMES
    calls = {"diff_axis": 0, "radius": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(symmetry, "diff_axis",
                        counted("diff_axis", symmetry.diff_axis))
    monkeypatch.setattr(grid_module.Grid4, "radius",
                        counted("radius", grid_module.Grid4.radius))

    def sweep(generators, **stages):
        grid_module._lattice_store.cache_clear()
        calls.update(diff_axis=0, radius=0)
        sc = small_scenario(scenario="poincare", generators=generators)
        return _sweep(sc, "schwarzschild", **stages)

    every = list(POINCARE_GENERATOR_NAMES)
    for stage in ({"gen_ns": (9,)}, {"killing_n": 9}):
        sweep(every, **stage)
        # one derivative per axis, all ten generators moving all four
        assert calls["diff_axis"] <= 4, stage
    # the tetrad, the metric, one cutoff sample and one norm mask; the
    # region_max calls of the ten generators read the held mask, the
    # boosts' one t slice at a time
    sweep(["P0"], gen_ns=(9,), killing_n=9)
    single = calls["radius"]
    raw = sweep(every, gen_ns=(9,), killing_n=9)
    assert calls["radius"] == single <= 4
    assert len(raw["killing"]) == len(raw["sym"]) == 10


def test_sweep_builds_the_test_form_once_per_n(monkeypatch):
    # the support check and Upsilon alpha do not depend on the generator
    from pcgrav.action import EquivariantTestForm
    from pcgrav.scenarios import _sweep
    from pcgrav.symmetry import POINCARE_GENERATOR_NAMES
    built = []
    check = EquivariantTestForm.__post_init__

    def counted(self):
        built.append(self.alpha.grid.points)
        check(self)

    monkeypatch.setattr(EquivariantTestForm, "__post_init__", counted)
    sc = small_scenario(scenario="poincare",
                        generators=list(POINCARE_GENERATOR_NAMES))
    raw = _sweep(sc, "schwarzschild", gen_ns=(9,))
    assert built == [9]
    assert len(raw["extra"]) == 10


def serial_sweep(sc, geometry, ns):
    """The raw norms of a sweep of every stage at each of ``ns``, computed
    one N after another in the calling process, as a reference."""
    from pcgrav.action import (einstein_residual, standard_test_form,
                               torsion_residual)
    from pcgrav.symmetry import PoincareElement
    gens = [PoincareElement.from_name(name) for name in sc.generators]
    chart = sc.chart(geometry)
    raw = {"sym": {gen.name: [] for gen in gens},
           "extra": {gen.name: [] for gen in gens},
           "gen_spacings": [], "torsion": [], "einstein": [],
           "eom_spacings": []}
    for n in ns:
        grid = sc.grid(n)
        e = chart.tetrad(grid)
        sym, extra = scenarios._generator_norms(
            e, gens, standard_test_form(grid, sc.cutoff()))
        for gen, snorm, enorm in zip(gens, sym, extra):
            raw["sym"][gen.name].append(snorm)
            raw["extra"][gen.name].append(enorm)
        omega = chart.connection(grid)
        raw["torsion"].append(torsion_residual(e, omega)[1])
        raw["einstein"].append(einstein_residual(
            e, omega, sc.cosmological_constant)[1])
        raw["gen_spacings"].append(grid.spacing)
        raw["eom_spacings"].append(grid.spacing)
    raw["killing"] = scenarios._killing_norms(
        chart.metric(sc.grid(ns[-1])), gens)
    return raw


def hexed(value):
    """``value`` with every float replaced by its hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    return [hexed(item) for item in value]


@pytest.mark.parametrize("mode", ["spatial", "4d"])
def test_pooled_sweeps_keep_every_bit_of_the_serial_ones(mode):
    # the items run largest N first, in any worker; the norms must come
    # back in N order, each as one process alone computes it
    from pcgrav.cli import worker_map
    sc = small_scenario(scenario="poincare", geometry="minkowski",
                        radius_mode=mode, Ns=list(NS))
    references = {geometry: hexed(serial_sweep(sc, geometry, NS))
                  for geometry in ("minkowski", "schwarzschild")}
    bodies = set()
    for threads in (1, 2, 3):
        run = worker_map(threads)
        for geometry, reference in references.items():
            raw = scenarios._sweep(sc, geometry, run, gen_ns=NS, eom_ns=NS,
                                   killing_n=NS[-1])
            assert hexed(raw) == reference, (geometry, threads)
        bodies.add(json.dumps(run_scenario(sc, run), sort_keys=True))
    assert len(bodies) == 1
