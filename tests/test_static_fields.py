"""Static fields stored with extent 1 on t against their dense copies."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import pcgrav.grid as grid_module
import pcgrav.symmetry as symmetry
from pcgrav.action import (EquivariantTestForm, PcConfig, einstein_residual,
                           extra_eom_term, torsion_residual)
from pcgrav.geometry import MinkowskiChart, SchwarzschildIsotropic
from pcgrav.grid import Grid4
from pcgrav.scenarios import (Scenario, _sweep, run_scenario,
                              scenario_from_dict, standard_test_form)
from pcgrav.symmetry import (CutoffFunction, killing_residual,
                             poincare_generators, symmetry_residual)

CHARTS = {"minkowski": MinkowskiChart(),
          "schwarzschild": SchwarzschildIsotropic(0.5)}


def dense(field):
    """The same field with every grid axis at full extent."""
    full = np.broadcast_to(field.data,
                           field.data.shape[:2] + field.grid.shape).copy()
    return dataclasses.replace(field, data=full)


class DenseChart:
    """A chart whose fields are the dense copies of another chart's."""

    def __init__(self, chart):
        self.chart = chart

    def tetrad(self, grid):
        return dense(self.chart.tetrad(grid))

    def connection(self, grid):
        return dense(self.chart.connection(grid))

    def metric(self, grid):
        return dense(self.chart.metric(grid))


def residual_fields(e, omega, g, cfg, cutoff):
    """(name, residual array, norm) of every residual the sweep norms."""
    region = cfg.region_kwargs()
    out = []
    for label, (residual, norm) in (
            ("torsion", torsion_residual(e, omega, cfg)),
            ("einstein", einstein_residual(e, omega, cfg))):
        out.append((label, residual.data, norm))
    gens = poincare_generators()
    alpha = standard_test_form(cfg.grid, cutoff, gens[0],
                               cfg.radius_mode).alpha
    for gen in gens:
        xe = symmetry_residual(e, gen)
        out.append((f"symmetry {gen.name}", xe.data,
                    xe.region_norm(**region)))
        term, norm = extra_eom_term(e, EquivariantTestForm(alpha, gen),
                                    cutoff, cfg, residual=xe)
        out.append((f"coupling {gen.name}", term.data, norm))
        lg, norm = killing_residual(g, gen, **region)
        out.append((f"killing {gen.name}", lg, norm))
    return out


@pytest.mark.parametrize("geometry", sorted(CHARTS))
def test_static_norms_match_dense_copies(geometry):
    chart = CHARTS[geometry]
    grid = Grid4(8.0, 9, inner_radius=3.0)
    cfg = PcConfig(0.0, grid, "spatial")
    cutoff = CutoffFunction(3.0, 5.0)
    e, omega = chart.tetrad(grid), chart.connection(grid)
    g = chart.metric(grid)
    for field in (e, omega, g):
        assert field.data.shape[2] == 1
    scale = max(float(np.abs(f.data).max()) for f in (e, omega, g))
    static = residual_fields(e, omega, g, cfg, cutoff)
    full = residual_fields(dense(e), dense(omega), dense(g), cfg, cutoff)
    for (label, _, norm), (_, _, dense_norm) in zip(static, full):
        assert abs(norm - dense_norm) <= 1e-14 * scale, label
        if geometry == "minkowski":
            assert norm == dense_norm == 0.0, label
    # only the boosts' transport t d_i e fills out the t axis
    extents = {label: residual.shape[2] for label, residual, _ in static}
    moving = {label for label, n in extents.items() if n > 1}
    if geometry == "schwarzschild":
        assert moving == {f"{kind} K{i}" for i in (1, 2, 3)
                          for kind in ("symmetry", "coupling", "killing")}
    else:
        assert not moving


def verdicts_and_kinds(body, path=""):
    """Every (path, value) whose key is ``verdict`` or ``kind``."""
    found = []
    if isinstance(body, dict):
        for key, value in body.items():
            if key in ("verdict", "kind"):
                found.append((f"{path}/{key}", value))
            found += verdicts_and_kinds(value, f"{path}/{key}")
    return found


def test_scenario_verdicts_match_dense_copies(monkeypatch):
    sc = scenario_from_dict({
        "scenario": "poincare", "M": 0.5, "grid": {"L": 8.0, "N": 17},
        "Ns": [9, 13, 17], "cutoff": {"r": 3.0, "R": 5.0},
        "radius_mode": "spatial", "radii": [4.0, 5.0]})
    static = run_scenario(sc)
    plain_chart = Scenario.chart
    monkeypatch.setattr(Scenario, "chart",
                        lambda self, geometry=None:
                        DenseChart(plain_chart(self, geometry)))
    full = run_scenario(sc)
    assert verdicts_and_kinds(static) == verdicts_and_kinds(full)
    assert len(verdicts_and_kinds(static)) > 40


def test_static_sweep_allocates_less_than_one_dense_field():
    sc = scenario_from_dict({
        "scenario": "spherical", "M": 1.0, "grid": {"L": 20.0, "N": 25},
        "Ns": [25], "cutoff": {"r": 12.0, "R": 16.0},
        "radius_mode": "spatial"})
    for cached in (grid_module._region_mask, grid_module._norm_mask,
                   symmetry._profile_on_grid):
        cached.cache_clear()
    one_dense = np.zeros((4, 4) + sc.grid(25).shape).nbytes
    tracemalloc.start()
    try:
        raw = _sweep(sc, "schwarzschild", gen_ns=(25,), eom_ns=(25,),
                     killing_n=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(raw["killing"]) == {"P0", "L1", "L2", "L3"}
    assert peak < one_dense, (peak, one_dense)
