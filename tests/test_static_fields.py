"""Static fields stored with extent 1 on t against their dense copies."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pcgrav.grid as grid_module
import pcgrav.symmetry as symmetry
from pcgrav.action import (einstein_residual, extra_eom_term,
                           standard_test_form, torsion_residual)
from pcgrav.fields import FormField, MetricField, metric_from_tetrad
from pcgrav.geometry import MinkowskiChart, SchwarzschildIsotropic
from pcgrav.grid import Grid4
from pcgrav.scenarios import (Scenario, _sweep, load_scenario, pc_study,
                              run_scenario, scenario_from_dict)
from pcgrav.symmetry import (CutoffFunction, killing_residual,
                             poincare_generators, symmetry_residual,
                             t_windows)

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


def residual_fields(e, omega, g, cutoff):
    """(name, residual array, norm) of every residual the sweep norms."""
    out = []
    for label, (residual, norm) in (
            ("torsion", torsion_residual(e, omega)),
            ("einstein", einstein_residual(e, omega, 0.0))):
        out.append((label, residual.data, norm))
    form = standard_test_form(e.grid, cutoff)
    for gen in poincare_generators():
        xe = symmetry_residual(e, gen)
        out.append((f"symmetry {gen.name}", xe.data, xe.region_norm()))
        term, norm = extra_eom_term(e, form, gen)
        out.append((f"coupling {gen.name}", term.data, norm))
        lg, norm = killing_residual(g, gen)
        out.append((f"killing {gen.name}", lg, norm))
    return out


@pytest.mark.parametrize("geometry", sorted(CHARTS))
def test_static_norms_match_dense_copies(geometry):
    chart = CHARTS[geometry]
    grid = Grid4(8.0, 9, inner_radius=3.0, radius_mode="spatial")
    cutoff = CutoffFunction(3.0, 5.0)
    e, omega = chart.tetrad(grid), chart.connection(grid)
    g = chart.metric(grid)
    for field in (e, omega, g):
        assert field.data.shape[2] == 1
    scale = max(float(np.abs(f.data).max()) for f in (e, omega, g))
    static = residual_fields(e, omega, g, cutoff)
    full = residual_fields(dense(e), dense(omega), dense(g), cutoff)
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


class PerturbedChart:
    """Flat static fields plus a seeded static perturbation, so that no
    reflection maps the t slices above the middle onto those below;
    ``nan`` plants a NaN in the last component of the tetrad and of the
    metric, at a node of the norm region."""

    def __init__(self, nan):
        self.nan = nan

    def _node(self, grid):
        return (3, 3, 0, grid.points - 3, grid.points - 3, grid.points // 2)

    def tetrad(self, grid):
        rng = np.random.default_rng(grid.points)
        data = MinkowskiChart().tetrad(grid).data + 1e-2 * rng.standard_normal(
            (4, 4, 1) + grid.shape[1:])
        if self.nan:
            data[self._node(grid)] = np.nan
        return FormField(grid, 1, 1, data)

    def metric(self, grid):
        data = metric_from_tetrad(PerturbedChart(False).tetrad(grid)).data.copy()
        if self.nan:
            data[self._node(grid)] = np.nan
        return MetricField(grid, data)


@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
@pytest.mark.parametrize("mode", ["spatial", "4d"])
@pytest.mark.parametrize("n", [9, 13])
def test_streamed_norms_equal_whole_grid_norms(monkeypatch, n, mode, nan):
    chart = PerturbedChart(nan)
    monkeypatch.setattr(Scenario, "chart",
                        lambda self, geometry=None: chart)
    sc = scenario_from_dict({
        "scenario": "poincare", "geometry": "minkowski", "M": 0.0,
        "grid": {"L": 8.0, "N": n}, "Ns": [n],
        # the cutoff ramps up across the whole box, so every t slice of
        # a 4d-mode coupling factor is its own
        "cutoff": {"r": 3.0, "R": 12.0}, "radius_mode": mode,
        "radii": [4.0, 5.0]})
    raw = _sweep(sc, "minkowski", gen_ns=(n,), killing_n=n)
    grid, cutoff = sc.grid(n), sc.cutoff()
    e, g = chart.tetrad(grid), chart.metric(grid)
    form = standard_test_form(grid, cutoff)
    streamed = []
    for gen in poincare_generators():
        xe = symmetry_residual(e, gen)
        whole = [xe.region_norm(), extra_eom_term(e, form, gen)[1],
                 killing_residual(g, gen)[1]]
        got = [raw["sym"][gen.name][0], raw["extra"][gen.name][0],
               raw["killing"][gen.name]]
        assert np.array_equal(got, whole, equal_nan=True), (gen.name, got,
                                                             whole)
        # the coupling of some planes never reads the NaN component
        assert np.isnan(got[0]) == np.isnan(got[2]) == nan, gen.name
        if len(t_windows(e.data, gen, grid)) > 1:
            streamed.append(gen.name)
            # the whole-grid residual fills out t, so each slice differs
            assert xe.data.shape[2] == n
    assert streamed == ["K1", "K2", "K3"]


def test_streamed_boost_sweep_peaks_below_one_dense_field():
    sc = scenario_from_dict({
        "scenario": "poincare", "M": 1.0, "grid": {"L": 20.0, "N": 25},
        "Ns": [25], "cutoff": {"r": 12.0, "R": 16.0},
        "radius_mode": "spatial", "radii": [8.0, 12.0, 16.0]})
    for cached in (grid_module._region_mask, grid_module._norm_mask,
                   symmetry._profile_on_grid):
        cached.cache_clear()
    one_dense = np.zeros((4, 4) + sc.grid(25).shape).nbytes
    tracemalloc.start()
    try:
        raw = _sweep(sc, "schwarzschild", gen_ns=(25,), killing_n=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(raw["killing"]) == len(raw["sym"]) == 10
    assert all(raw["killing"][f"K{i}"] > 0.0 for i in (1, 2, 3))
    assert peak < one_dense, (peak, one_dense)


def test_pc_eom_with_a_boost_first_peaks_below_one_dense_field():
    # the coupling term of generators[0] streams over t, as in the sweep;
    # in 4d mode the coupling factor fills out t, so only spatial is held
    sc = load_scenario(
        Path(__file__).resolve().parent.parent / "scenarios"
        / "poincare_schwarzschild.json",
        generators=["K1"], grid={"L": 20.0, "N": 25},
        radius_mode="spatial")
    for cached in (grid_module._region_mask, grid_module._norm_mask,
                   symmetry._profile_on_grid):
        cached.cache_clear()
    one_dense = np.zeros((4, 4) + sc.grid().shape).nbytes
    tracemalloc.start()
    try:
        body = pc_study(sc, "eom")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert body["extra_term_norm"] > 0.0
    assert peak < one_dense, (peak, one_dense)
