"""Acceptance suite: every release gate, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The heavy black-hole scenario is executed through the
command-line interface in two subprocesses with different --threads
settings; the determinism criterion compares their serialized bodies byte
for byte and the Killing-enforcement criterion reads one of them.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pcgrav import exact, fields as F
from pcgrav.action import action_pc, einstein_residual, torsion_residual
from pcgrav.algebras import (abelian, poincare_dgla, so3,
                             vector_representation_so3)
from pcgrav.geometry import (SchwarzschildIsotropic, minkowski_metric,
                             minkowski_tetrad)
from pcgrav.graded import (ActionMap, adjoint_action, build_action_dgla,
                           check_action_map, check_dgla,
                           extract_action_map, zero_action)
from pcgrav.grid import Grid4
from pcgrav.mass import adm_energy, komar_mass, positivity_check
from pcgrav.scenarios import eom_study, load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def record(number, description):
    print(f"\nACCEPTANCE {number}: PASS - {description}")


# ---------------------------------------------------------------------------
# 1. exact algebra suite
# ---------------------------------------------------------------------------

def test_criterion_1_exact_algebra_suite():
    start = time.perf_counter()
    iso3 = build_action_dgla(vector_representation_so3())
    subjects = [so3(), poincare_dgla(), iso3.total]
    subjects += [adjoint_action(s).total
                 for s in (so3(), poincare_dgla(), iso3.total)]
    for dgla in subjects:
        report = check_dgla(dgla)
        assert report.passed, str(report)

    literal = build_action_dgla(vector_representation_so3(),
                                plus_variant=True)
    report = check_dgla(literal.total)
    assert not report.passed
    witnesses = [v for v in report.violations if v.axiom == "antisymmetry"]
    assert witnesses and any(
        v.witness[0].startswith("g.") and v.witness[1].startswith("h.")
        for v in witnesses), "witness must pair (X,0) with (0,w)"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"algebra suite took {elapsed:.2f}s"
    record(1, f"axioms exact on 6 algebras, '+' variant rejected with "
              f"witness {witnesses[0].witness}, {elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# 2. action-map round trips
# ---------------------------------------------------------------------------

def _random_unimodular(rng, n):
    m = exact.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = Fraction(rng.randint(-2, 2))
            for k in range(n):
                m[i][k] += c * m[j][k]
    return m


def _random_action_map(rng):
    kind = rng.choice(["vector", "zero", "adjoint", "nilpotent"])
    if kind == "vector":
        alpha = vector_representation_so3()
    elif kind == "zero":
        alpha = zero_action(so3(), abelian(("u", "v", "w")))
    elif kind == "adjoint":
        g = so3()
        mats = tuple(
            [[g.algebra.structure_constant(i, j, k) for k in range(3)]
             for j in range(3)] for i in range(3))
        alpha = ActionMap(g, g, mats)
    else:
        g = abelian(("a", "b"))
        nil = exact.zeros(3, 3)
        nil[0][1] = Fraction(1)
        nil[1][2] = Fraction(rng.randint(-2, 2))
        mats = tuple([[c * x for x in row] for row in nil]
                     for c in (Fraction(rng.randint(-2, 2)),
                               Fraction(rng.randint(-2, 2))))
        alpha = ActionMap(g, abelian(("u", "v", "w")), mats)
    if kind != "adjoint" and rng.random() < 0.6:
        u = _random_unimodular(rng, alpha.module.dim)
        v = exact.inverse(u)
        alpha = ActionMap(alpha.actor, alpha.module,
                          tuple(exact.matmul(exact.matmul(u, m), v)
                                for m in alpha.matrices))
    return alpha


def test_criterion_2_round_trips_exact():
    start = time.perf_counter()
    rng = random.Random(8)
    for trial in range(20):
        alpha = _random_action_map(rng)
        assert check_action_map(alpha).passed
        recovered = extract_action_map(build_action_dgla(alpha))
        assert recovered == alpha, f"trial {trial} round trip not exact"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"round trips took {elapsed:.2f}s"
    record(2, f"20 randomized action maps recovered exactly, "
              f"{elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# 3. flat-space action and field equations at N = 33
# ---------------------------------------------------------------------------

def test_criterion_3_flat_space_eoms():
    grid = Grid4(20.0, 33)
    e = minkowski_tetrad(grid)
    omega = F.zeros(grid, 1, 2)
    assert action_pc(e, omega, 0.0) == 0.0
    _, torsion = torsion_residual(e, omega)
    _, einstein = einstein_residual(e, omega, 0.0)
    assert torsion == 0.0 and einstein == 0.0
    s1 = action_pc(e, omega, 1.0)
    expected = (2 * 20.0) ** 4
    assert s1 == pytest.approx(expected, rel=5e-3)
    record(3, f"flat residuals exactly 0; S(Lambda=1) = {s1:.6g} vs "
              f"(2L)^4 = {expected:.6g} (rel err {abs(s1/expected-1):.1e})")


# ---------------------------------------------------------------------------
# 4. black-hole exterior on shell: residual convergence
# ---------------------------------------------------------------------------

def test_criterion_4_schwarzschild_on_shell_convergence():
    start = time.perf_counter()
    scenario = load_scenario(SCENARIOS / "eom_schwarzschild.json")
    assert scenario.cutoff_inner == 4.0 and scenario.cutoff_outer == 8.0
    assert scenario.half_width == 20.0
    assert tuple(scenario.resolutions) == (17, 25, 33)
    study = eom_study(scenario, "schwarzschild", scenario.resolutions)
    elapsed = time.perf_counter() - start
    for name in ("torsion", "einstein"):
        entry = study[name]
        assert entry["slope"] is not None and entry["slope"] >= 1.7, \
            (name, entry)
    assert elapsed < 600.0, f"run took {elapsed:.0f}s (budget 10 min)"
    record(4, "torsion slope %.2f, einstein slope %.2f over N=17/25/33, "
              "%.0f s" % (study["torsion"]["slope"],
                          study["einstein"]["slope"], elapsed))


# ---------------------------------------------------------------------------
# 5 & 8. Killing enforcement pattern + byte-identical reports
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def killing_runs(tmp_path_factory):
    outputs = {}
    for threads in (1, 4):
        out = tmp_path_factory.mktemp(f"threads{threads}")
        proc = subprocess.run(
            [sys.executable, "-m", "pcgrav.cli", "killing", "residuals",
             "--scenario", str(SCENARIOS / "poincare_schwarzschild.json"),
             "--threads", str(threads), "--out", str(out)],
            capture_output=True, text=True, cwd=ROOT, timeout=580)
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = json.loads((out / "killing_residuals.json").read_text())
        csv_text = (out / "residuals_schwarzschild.csv").read_text()
        outputs[threads] = {"report": report, "csv": csv_text}
    return outputs


def test_criterion_5_killing_enforcement(killing_runs):
    body = killing_runs[1]["report"]["body"]
    assert body["verdict"] == "pass"

    flat = body["sections"]["minkowski"]
    for family in ("symmetry_residuals", "extra_eom_terms"):
        for name, entry in flat[family].items():
            assert entry["verdict"] == "pass", (family, name, entry)

    curved = body["sections"]["schwarzschild"]
    expected_killing = {"P0", "L1", "L2", "L3"}
    complementary = {"P1", "P2", "P3", "K1", "K2", "K3"}
    for family in ("symmetry_residuals", "extra_eom_terms"):
        for name in expected_killing:
            entry = curved[family][name]
            assert entry["kind"] in ("exact", "decaying"), (family, name)
            if entry["kind"] == "decaying":
                assert entry["slope"] >= 1.7, (family, name, entry)
            assert entry["verdict"] == "pass"
        for name in complementary:
            entry = curved[family][name]
            assert entry["kind"] == "non-decaying", (family, name, entry)
            assert entry["verdict"] == "fail"
            # the stated quantitative gate: 10x above the passing threshold
            assert entry["norms"][-1] >= 10.0 * entry["pass_threshold"], \
                (family, name, entry)
    margins = [curved["symmetry_residuals"][n]["norms"][-1]
               / curved["symmetry_residuals"][n]["pass_threshold"]
               for n in sorted(complementary)]
    record(5, "flat space 10/10 pass; exterior: {P0,L1,L2,L3} decay, "
              "complementary six non-decaying at %.0fx-%.0fx the pass "
              "threshold" % (min(margins), max(margins)))


def test_criterion_8_reports_byte_identical_across_threads(killing_runs):
    body1 = json.dumps(killing_runs[1]["report"]["body"], sort_keys=True)
    body4 = json.dumps(killing_runs[4]["report"]["body"], sort_keys=True)
    assert body1.encode() == body4.encode()
    assert killing_runs[1]["csv"] == killing_runs[4]["csv"]
    assert killing_runs[1]["report"]["manifest"]["threads"] == 1
    assert killing_runs[4]["report"]["manifest"]["threads"] == 4
    record(8, "report bodies and CSV byte-identical for --threads 1 vs 4 "
              f"({len(body1)} bytes compared)")


# ---------------------------------------------------------------------------
# 6. masses
# ---------------------------------------------------------------------------

def test_criterion_6_masses():
    grid = Grid4(20.0, 33)
    radii = [8.0, 12.0, 16.0]

    flat = adm_energy(minkowski_metric(grid), radii)
    assert flat["values"] == [0.0, 0.0, 0.0]
    assert abs(flat["extrapolated"]) <= 1e-12
    checks = [positivity_check(flat["extrapolated"], (0.0, 0.0, 0.0))]

    summary = []
    for mass in (0.5, 1.0, 2.0):
        metric = SchwarzschildIsotropic(mass).metric(grid)
        adm = adm_energy(metric, radii)
        assert adm["extrapolated"] == pytest.approx(mass, rel=0.01), \
            (mass, adm)
        checks.append(positivity_check(adm["extrapolated"], (0.0, 0.0, 0.0)))
        summary.append((mass, adm["extrapolated"]))
        if mass == 1.0:
            komar = komar_mass(metric, radii)
            agreement = abs(komar["extrapolated"] - adm["extrapolated"]) \
                / adm["extrapolated"]
            assert agreement <= 0.02, (komar, adm)
            checks.append(positivity_check(komar["extrapolated"],
                                           (0.0, 0.0, 0.0)))
    assert all(c["passed"] for c in checks)
    record(6, "ADM(flat) = 0; " + ", ".join(
        f"ADM(M={m}) = {v:.4f}" for m, v in summary)
        + f"; Komar/ADM agree to {agreement * 100:.2f}%; "
          "energy bound holds on all examples")


# ---------------------------------------------------------------------------
# 7. forms-dgla Leibniz convergence
# ---------------------------------------------------------------------------

def test_criterion_7_leibniz_convergence():
    norms, spacings = [], []
    for n in (9, 13, 17):
        grid = Grid4(1.0, n)
        rng = np.random.default_rng(77)
        k = np.pi / 2.0

        def smooth():
            data = np.zeros((4, 6) + grid.shape)
            for s in range(4):
                for i in range(6):
                    amp = rng.normal(size=4)
                    data[s, i] = sum(
                        amp[mu] * np.sin(k * np.broadcast_to(
                            grid.coordinate(mu), grid.shape) + 0.25 * mu)
                        for mu in range(4))
            return F.FormField(grid, 1, 2, data)

        a, b = smooth(), smooth()
        lhs = F.ext_d(F.form_dgla_bracket(a, b))
        rhs = (F.form_dgla_bracket(F.ext_d(a), b)
               - F.form_dgla_bracket(a, F.ext_d(b)))
        norms.append((lhs - rhs).max_abs())
        spacings.append(grid.spacing)
    slope = float(np.polyfit(np.log(spacings), np.log(norms), 1)[0])
    assert norms[0] > norms[1] > norms[2]
    assert slope >= 1.7, (norms, slope)
    record(7, f"graded Leibniz defect decays at slope {slope:.2f} "
              f"(norms {', '.join('%.2e' % v for v in norms)})")
