"""Static fields stored with extent 1 on t against their dense copies."""

import collections
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pcgrav.fields as fields_module
import pcgrav.grid as grid_module
import pcgrav.scenarios as scenarios
from pcgrav.action import (EquivariantTestForm, einstein_residual,
                           extra_eom_term, standard_test_form,
                           torsion_residual)
from pcgrav.conventions import LAMBDA_BASES
from pcgrav.fields import (INTERNAL_DIMS, FormField, MetricField, cov_d,
                           curvature, live_components, metric_from_tetrad,
                           wedge, zeros)
from pcgrav.geometry import MinkowskiChart, SchwarzschildIsotropic
from pcgrav.grid import FACE_LAYERS, Grid4
from pcgrav.scenarios import (Scenario, _generator_norms, _killing_norms, _on,
                              _sweep, load_scenario, pc_study, run_scenario,
                              scenario_from_dict)
from pcgrav.symmetry import (CutoffFunction, PoincareElement, axis_derivatives,
                             lie_derivative_metric, poincare_generators,
                             symmetry_residual, t_windows)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BOOSTS = [PoincareElement.from_name(f"K{i}") for i in (1, 2, 3)]

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
        lg = lie_derivative_metric(g, gen)
        out.append((f"killing {gen.name}", lg.data, lg.region_norm()))
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
    grid_module._lattice_store.cache_clear()
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
                 lie_derivative_metric(g, gen).region_norm()]
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


def loaded(mode, load):
    """``load()``, which warns of a Schwarzschild scenario in "4d" mode."""
    if mode == "spatial":
        return load()
    with pytest.warns(UserWarning, match="'spatial' is recommended"):
        return load()


@pytest.mark.parametrize("mode", ["spatial", "4d"])
def test_streamed_boost_sweep_peaks_below_one_dense_field(mode):
    # in "4d" mode the coupling factor depends on t: it and every
    # coupling term are built one t slice at a time
    sc = loaded(mode, lambda: scenario_from_dict({
        "scenario": "poincare", "M": 1.0, "grid": {"L": 20.0, "N": 25},
        "Ns": [25], "cutoff": {"r": 12.0, "R": 16.0},
        "radius_mode": mode, "radii": [8.0, 12.0, 16.0]}))
    grid_module._lattice_store.cache_clear()
    one_dense = np.zeros((4, 4) + sc.grid(25).shape).nbytes
    tracemalloc.start()
    try:
        raw = _sweep(sc, "schwarzschild", gen_ns=(25,), killing_n=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(raw["killing"]) == len(raw["sym"]) == 10
    assert all(raw["killing"][f"K{i}"] > 0.0 for i in (1, 2, 3))
    assert all(raw["extra"][name][0] > 0.0 for name in ("L1", "P1", "K1"))
    assert peak < one_dense, (peak, one_dense)


@pytest.mark.parametrize("mode", ["spatial", "4d"])
def test_pc_eom_with_a_boost_first_peaks_below_one_dense_field(mode):
    # the coupling term of generators[0] streams over t, as in the sweep
    sc = loaded(mode, lambda: load_scenario(
        SCENARIOS / "poincare_schwarzschild.json",
        generators=["K1"], grid={"L": 20.0, "N": 25}, radius_mode=mode))
    grid_module._lattice_store.cache_clear()
    one_dense = np.zeros((4, 4) + sc.grid().shape).nbytes
    tracemalloc.start()
    try:
        body = pc_study(sc, "eom")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert body["extra_term_norm"] > 0.0
    assert peak < one_dense, (peak, one_dense)


def traced_peak(run):
    """Peak traced bytes of ``run()`` above what was allocated before."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["curvature", "cov_d"])
def test_field_sums_peak_at_two_result_size_arrays(name):
    # the sum goes into a buffer of its own, made before the second
    # operand: two result-size arrays at once, plus ext_d's scratch (one
    # target's components and a stencil chunk), where the sum of two
    # results in a third held three
    grid = Grid4(20.0, 25, 12.0, "spatial")
    chart = SchwarzschildIsotropic(1.0)
    e, omega = chart.tetrad(grid), chart.connection(grid)
    run = {"curvature": lambda: curvature(omega),
           "cov_d": lambda: cov_d(omega, e)}[name]
    size = run().data.nbytes
    peak = traced_peak(run)
    assert peak < 2.5 * size, (peak / size)


@pytest.mark.parametrize("mode", ["spatial", "4d"])
def test_pc_eom_holds_each_field_only_while_it_is_read(mode):
    # the norms are kept and the residuals dropped, omega goes before the
    # coupling term, and the curvature is built before e^e: the study
    # peaks below four static Lambda^2-valued 2-forms; holding the
    # residuals, omega, e^e and the sums' third buffers took about 5.6
    sc = loaded(mode, lambda: load_scenario(
        SCENARIOS / "poincare_schwarzschild.json",
        generators=["K1"], grid={"L": 20.0, "N": 25}, radius_mode=mode))
    grid_module._lattice_store.cache_clear()
    two_form = np.zeros((6, 6, 1) + sc.grid().shape[1:]).nbytes
    body = {}
    peak = traced_peak(lambda: body.update(pc_study(sc, "eom")))
    assert body["einstein_norm"] > 0.0 and body["extra_term_norm"] > 0.0
    assert peak < 4 * two_form, (peak / two_form)


def dead_components_are_zeros(field):
    """Every component outside ``field.live`` is exactly 0.0 at every
    node; a NaN there counts as nonzero."""
    return not np.any(field.data[~field.live] != 0.0)


@pytest.mark.parametrize("mode", ["spatial", "4d"])
def test_no_component_outside_the_live_set_is_nonzero(mode):
    grid = Grid4(8.0, 9, inner_radius=3.0, radius_mode=mode)
    rng = np.random.default_rng(26)

    def form(degree, internal, extents, dead, planted=()):
        data = rng.normal(size=(len(LAMBDA_BASES[degree]),
                                INTERNAL_DIMS[internal]) + extents)
        for c in dead:
            data[c] = 0.0
        for node, value in planted:
            data[node] = value
        return FormField(grid, degree, internal, data)

    static = (1,) + grid.shape[1:]
    # non-finite samples in live components: inf * 0.0 is NaN
    a = form(1, 2, static, [(0, 0), (2, 1), (3, 5)],
             [((1, 3, 0, 4, 4, 4), np.inf), ((2, 0, 0, 1, 2, 3), np.nan)])
    b = form(1, 2, grid.shape, [(1, 1), (1, 2), (1, 3)])
    # a diagonal tetrad-like 1-form: most of its products are dead
    e = form(1, 1, static, [(i, j) for i in range(4) for j in range(4)
                            if i != j])
    # inf - inf is NaN here, as it should be
    with np.errstate(invalid="ignore"):
        products = [wedge(a, b, "bracket"), wedge(a, b, "action"),
                    wedge(a, e, "action"), wedge(e, e),
                    wedge(a, a, "bracket")]
        fields = [*products, a, b, e, products[0] + products[4],
                  products[0] - products[4], zeros(grid, 2, 2)]
    assert not zeros(grid, 2, 2).live.any()
    assert not wedge(zeros(grid, 1, 2), b, "bracket").live.any()
    form2 = standard_test_form(grid, CutoffFunction(3.0, 12.0))
    windows = [grid.window(t) for t in range(grid.points)]
    for gen in poincare_generators():
        whole = form2.factor(gen, grid)
        fields.append(whole)
        for where in windows:
            factor = form2.factor(gen, where)
            piece = _on(whole, where)
            assert np.array_equal(factor.data, piece.data)
            assert np.array_equal(factor.live, piece.live)
            fields += [factor, wedge(_on(e, where), factor)]
    # a one-plane alpha: the factor's rows of the other planes are dead,
    # so an infinite residual sample meets no 0.0 of theirs (inf * 0.0)
    cutoff = CutoffFunction(3.0, 12.0)
    alpha = np.zeros((6, 1) + grid.shape)
    alpha[3, 0] = cutoff.on_grid(grid)
    one_plane = EquivariantTestForm(FormField(grid, 2, 0, alpha), cutoff)
    r = form(1, 1, grid.shape, [],
             [((0, i, 2, 2, 2, 2), np.inf) for i in range(4)])
    for gen in poincare_generators():
        for where in [grid, *windows]:
            factor = one_plane.factor(gen, where)
            assert np.array_equal(factor.live, live_components(factor.data))
            with np.errstate(invalid="ignore"):
                term = wedge(_on(r, where), factor)
                scanned = wedge(_on(r, where),
                                FormField(where, 2, 2, factor.data))
            assert np.array_equal(term.data, scanned.data, equal_nan=True)
            assert np.array_equal(term.live, scanned.live)
            fields.append(term)
        # the infinite samples meet the live plane: the check has teeth
        assert not np.isfinite(fields[-len(windows) - 1].data).all()
    fields += [_on(field, where) for field in products for where in windows]
    for field in fields:
        assert dead_components_are_zeros(field)
        # the set a producer gives is the written set: no narrower than
        # a scan of its data
        assert not np.any(live_components(field.data) & ~field.live)
    assert not products[3].live.all()
    assert all(np.isnan(field.data).any() for field in products[:3])


class SeededChart:
    """Flat static fields plus a static perturbation of ``scale``, seeded
    by ``seed`` and the node count; ``inf`` plants +inf at that index of
    the tetrad and of the metric."""

    def __init__(self, seed, scale=1e-2, inf=None):
        self.seed, self.scale, self.inf = seed, scale, inf

    def _plant(self, data):
        if self.inf is not None:
            data[self.inf] = np.inf
        return data

    def _perturbed(self, grid):
        rng = np.random.default_rng([self.seed, grid.points])
        return FormField(grid, 1, 1, MinkowskiChart().tetrad(grid).data
                         + self.scale * rng.standard_normal(
                             (4, 4, 1) + grid.shape[1:]))

    def tetrad(self, grid):
        return FormField(grid, 1, 1,
                         self._plant(self._perturbed(grid).data.copy()))

    def metric(self, grid):
        g = metric_from_tetrad(self._perturbed(grid))
        return MetricField(grid, self._plant(g.data.copy()))


def every_slice_norms(e, g, gen, form):
    """Symmetry, coupling and Killing norms of ``gen`` on each interior t
    slice, one window per slice, rows in t order."""
    grid = e.grid
    de = axis_derivatives(e, [gen])
    dg = axis_derivatives(g, [gen])
    factor = form.factor(gen, grid)
    rows = []
    for t in range(FACE_LAYERS, grid.points - FACE_LAYERS):
        where = grid.window(t)
        xe = symmetry_residual(_on(e, where), gen, de)
        rows.append([xe.region_norm(),
                     wedge(xe, _on(factor, where)).region_norm(),
                     lie_derivative_metric(_on(g, where), gen,
                                           dg).region_norm()])
    return np.array(rows)


def hex_boost_norms(e, g, form):
    """(three-slice, every-slice max) symmetry, coupling and Killing norms
    of K1-K3, in hex."""
    sym, extra = _generator_norms(e, BOOSTS, form)
    killing = _killing_norms(g, BOOSTS)
    got = [[s, x, killing[gen.name]] for gen, s, x in zip(BOOSTS, sym, extra)]
    want = [every_slice_norms(e, g, gen, form).max(axis=0) for gen in BOOSTS]
    return ([[float(v).hex() for v in row] for row in got],
            [[float(v).hex() for v in row] for row in want])


@pytest.mark.parametrize("n", [17, 25, 33])
@pytest.mark.parametrize("geometry", ["minkowski", "schwarzschild"])
def test_three_slice_boost_norms_equal_every_slice_max(geometry, n):
    sc = load_scenario(SCENARIOS / "poincare_schwarzschild.json")
    grid = sc.grid(n)
    chart = sc.chart(geometry)
    e, g = chart.tetrad(grid), chart.metric(grid)
    got, want = hex_boost_norms(e, g, standard_test_form(grid, sc.cutoff()))
    assert got == want
    if geometry == "schwarzschild":
        assert all(len(t_windows(e.data, gen, grid)) == 3 for gen in BOOSTS)
        assert all(v != "0x0.0p+0" for row in got for v in row)


@pytest.mark.parametrize("n", [9, 13, 17, 25])
def test_three_slice_boost_norms_of_seeded_static_tetrads(n):
    grid = Grid4(8.0, n, inner_radius=3.0, radius_mode="spatial")
    form = standard_test_form(grid, CutoffFunction(3.0, 12.0))
    for seed in range(4):
        for scale in (1e-2, 1e-9):
            chart = SeededChart(seed, scale)
            got, want = hex_boost_norms(chart.tetrad(grid), chart.metric(grid),
                                        form)
            assert got == want, (seed, scale)


@pytest.mark.parametrize("n", [9, 13])
def test_an_infinite_sample_keeps_the_nan_of_the_t0_slice(n):
    grid = Grid4(8.0, n, inner_radius=3.0, radius_mode="spatial")
    form = standard_test_form(grid, CutoffFunction(3.0, 5.0))
    # the z leg of internal index 3, which K1's rotation leaves alone, in
    # the face layer x = N - 2 (its own d_t is NaN there, off the norm
    # region): d_x of it is +-inf at its two neighbours inside the region,
    # so K1's t d_x is NaN at t = 0 and infinite on every other slice
    chart = SeededChart(0, inf=(3, 3, 0, n - 2, n - 3, n // 2))
    e, g = chart.tetrad(grid), chart.metric(grid)
    assert grid.axis_coordinates()[n // 2] == 0.0
    got, want = hex_boost_norms(e, g, form)
    norms = every_slice_norms(e, g, BOOSTS[0], form)
    assert got == want
    assert got[0] == ["nan"] * 3
    middle = n // 2 - FACE_LAYERS
    assert np.isnan(norms[middle]).all()
    assert np.isinf(np.delete(norms, middle, axis=0).max(axis=0)).all()


@pytest.mark.parametrize("mode", ["spatial", "4d"])
def test_boosts_read_three_windows_in_spatial_mode(monkeypatch, mode):
    n = 13
    monkeypatch.setattr(Scenario, "chart",
                        lambda self, geometry=None: SeededChart(0))
    where = collections.defaultdict(list)

    def counted(kind, residual):
        def call(field, gen, derivatives=None):
            t = field.grid.t if field.grid != grid else "grid"
            where[kind, gen.name].append(t)
            return residual(field, gen, derivatives)
        return call

    monkeypatch.setattr(scenarios, "symmetry_residual",
                        counted("symmetry", symmetry_residual))
    monkeypatch.setattr(scenarios, "lie_derivative_metric",
                        counted("killing", lie_derivative_metric))
    sc = scenario_from_dict({
        "scenario": "poincare", "geometry": "minkowski", "M": 0.0,
        "grid": {"L": 8.0, "N": n}, "Ns": [n],
        "cutoff": {"r": 3.0, "R": 5.0}, "radius_mode": mode,
        "radii": [4.0, 5.0]})
    grid = sc.grid(n)
    _sweep(sc, "minkowski", gen_ns=(n,), killing_n=n)
    boost_slices = (
        [FACE_LAYERS, n // 2, n - FACE_LAYERS - 1] if mode == "spatial"
        else list(range(FACE_LAYERS, n - FACE_LAYERS)))
    assert len(where) == 20
    for (kind, name), slices in where.items():
        expected = boost_slices if name.startswith("K") else ["grid"]
        assert slices == expected, (kind, name)


# ---------------------------------------------------------------------------
# Live sets from the writers, one coupling factor per plane
# ---------------------------------------------------------------------------

def scanned(field):
    """The same samples with no live set given: it is scanned on use."""
    return dataclasses.replace(field, _live=None)


def reference_generator_norms(e, gens, form):
    """``_generator_norms`` with every live set scanned and one coupling
    factor built per (generator, window)."""
    grid, e = e.grid, scanned(e)
    derivatives = axis_derivatives(e, gens)
    slices = [grid.window(t)
              for t in range(FACE_LAYERS, grid.points - FACE_LAYERS)]
    factor_moves = form.cutoff.on_grid(grid).shape[0] > 1
    sym, extra = [], []
    for gen in gens:
        norms = []
        for where in t_windows(e.data, gen, grid):
            xe = scanned(symmetry_residual(_on(e, where), gen, derivatives))
            pieces = slices if factor_moves and where == grid else [where]
            terms = [wedge(_on(xe, piece), form.factor(gen, piece))
                     .region_norm() for piece in pieces]
            norms.append((xe.region_norm(), np.max(terms)))
        snorm, enorm = np.max(norms, axis=0)
        sym.append(float(snorm))
        extra.append(float(enorm))
    return sym, extra


def reference_killing_norms(g, gens):
    """Killing norms read over all 16 components of a scanned metric."""
    g = scanned(g)
    derivatives = axis_derivatives(g, gens)
    norms = {}
    for gen in gens:
        rows = []
        for where in t_windows(g.data, gen, g.grid):
            out = lie_derivative_metric(_on(g, where), gen,
                                        derivatives).data
            rows.append(grid_module.region_max(
                out.reshape((-1,) + out.shape[2:]), where))
        norms[gen.name] = float(np.max(rows))
    return norms


@pytest.mark.parametrize("mode", ["spatial", "4d"])
@pytest.mark.parametrize("geometry", ["minkowski", "schwarzschild"])
def test_sweep_norms_equal_the_rescanning_reference(geometry, mode):
    ns = (9, 13, 17)
    sc = loaded("spatial" if geometry == "minkowski" else mode,
                lambda: scenario_from_dict({
                    "scenario": "poincare", "geometry": geometry, "M": 0.5,
                    "grid": {"L": 8.0, "N": 17}, "Ns": list(ns),
                    "cutoff": {"r": 3.0, "R": 5.0}, "radius_mode": mode,
                    "radii": [4.0, 5.0]}))
    raw = _sweep(sc, geometry, gen_ns=ns, killing_n=ns[-1])
    gens = poincare_generators()
    chart = sc.chart(geometry)
    for k, n in enumerate(ns):
        grid = sc.grid(n)
        sym, extra = reference_generator_norms(
            chart.tetrad(grid), gens, standard_test_form(grid, sc.cutoff()))
        for gen, s, x in zip(gens, sym, extra):
            assert raw["sym"][gen.name][k].hex() == s.hex(), (n, gen.name)
            assert raw["extra"][gen.name][k].hex() == x.hex(), (n, gen.name)
    want = reference_killing_norms(chart.metric(sc.grid(ns[-1])), gens)
    assert {name: v.hex() for name, v in raw["killing"].items()} == {
        name: v.hex() for name, v in want.items()}
    assert (want["K1"] > 0.0) == (geometry == "schwarzschild")


def written_sets_cases():
    """Tetrads and metrics with live sets of every kind, on 9 nodes."""
    grid = Grid4(8.0, 9, inner_radius=3.0, radius_mode="spatial")
    for chart in (*CHARTS.values(), SeededChart(1), PerturbedChart(True)):
        yield grid, chart.tetrad(grid), chart.metric(grid)
    rng = np.random.default_rng(3032)
    a = rng.normal(size=(4, 4) + grid.shape)
    yield (grid, FormField(grid, 1, 1, rng.normal(size=a.shape)),
           MetricField(grid, a + a.swapaxes(0, 1)))
    # off the diagonal, few live: a rotation's row and column terms each
    # write components that nothing else does.  Each g is constant and
    # not symmetric, so its norm is that of what only its row (or only its
    # column) terms write
    for row in (0, 1):
        e, g = np.zeros_like(a), np.zeros((4, 4, 1, 1, 1, 1))
        e[row, 1 - row], e[3, 2] = a[0, 1], a[3, 2]
        g[row, 1 - row] = 1.0
        yield grid, FormField(grid, 1, 1, e), MetricField(grid, g)


def test_written_live_sets_cover_the_data_and_the_killing_norm():
    for grid, e, g in written_sets_cases():
        for gen in poincare_generators():
            for where in [grid, *t_windows(e.data, gen, grid)]:
                with np.errstate(invalid="ignore"):
                    xe = symmetry_residual(_on(e, where), gen)
                    lg = lie_derivative_metric(_on(g, where), gen)
                    out, norm = lg.data, lg.region_norm()
                assert not np.any(live_components(xe.data) & ~xe.live)
                full = grid_module.region_max(
                    out.reshape((-1,) + out.shape[2:]), where)
                assert np.array_equal(norm, full, equal_nan=True), gen.name


def test_spatial_sweep_builds_a_factor_per_plane_and_no_determinant(
        monkeypatch):
    sc = load_scenario(SCENARIOS / "poincare_schwarzschild.json")
    det_calls, builds = [], collections.Counter()
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det",
                        lambda a: det_calls.append(a.shape) or det(a))
    factor = EquivariantTestForm.factor

    def counted(self, gen, where):
        builds[where.points if where == self.alpha.grid else "window"] += 1
        return factor(self, gen, where)

    monkeypatch.setattr(EquivariantTestForm, "factor", counted)
    scans = []
    monkeypatch.setattr(fields_module, "live_components",
                        lambda data: scans.append(data.shape)
                        or live_components(data))
    for n in sc.resolutions:
        grid = sc.grid(n)
        chart = sc.chart("schwarzschild")
        e = chart.tetrad(grid)
        assert chart.metric(grid).live.sum() == 4
        # the chart's fields carry their live sets: neither is scanned
        assert not det_calls and not scans
        _generator_norms(e, poincare_generators(),
                         standard_test_form(grid, sc.cutoff()))
        assert builds.pop(n) <= 8 and not builds, n
        scans.clear()  # the test form's alpha is scanned
    assert sc.radius_mode == "spatial" and len(sc.resolutions) == 3


# ---------------------------------------------------------------------------
# Live-only storage: the sweep stores, zero-fills and faults in no dead
# component
# ---------------------------------------------------------------------------

# traced peaks of the N = 33 Schwarzschild items of poincare_schwarzschild
# .json, grid caches cleared, when every field held all its components
DENSE_LAYOUT_PEAK_MIB = {"generators": 30.1, "eom": 33.0, "killing": 15.5}


@pytest.mark.parametrize("stage", sorted(DENSE_LAYOUT_PEAK_MIB))
def test_n33_sweep_items_peak_at_two_thirds_of_the_dense_layout(stage):
    sc = load_scenario(SCENARIOS / "poincare_schwarzschild.json")
    grid_module._lattice_store.cache_clear()
    peak = traced_peak(lambda: scenarios._stage(
        sc, ("schwarzschild", 33, stage)))
    assert peak <= 2 / 3 * DENSE_LAYOUT_PEAK_MIB[stage] * 2 ** 20, (
        stage, peak / 2 ** 20)


def test_killing_residuals_build_no_dense_samples(monkeypatch):
    built = []
    dense_of = fields_module.dense
    monkeypatch.setattr(fields_module, "dense", lambda stack, live: (
        built.append(live.shape) or dense_of(stack, live)))
    body = run_scenario(load_scenario(
        SCENARIOS / "poincare_schwarzschild.json"))
    assert body["verdict"] in ("pass", "fail", "inconclusive")
    assert built == []


def test_an_all_live_field_stores_its_dense_samples_as_they_are():
    rng = np.random.default_rng(31)
    grid = Grid4(2.0, 9)
    data = rng.normal(size=(4, 6) + grid.shape)
    a = FormField(grid, 1, 2, data)
    assert a.live.all()
    assert np.shares_memory(a.stack, data) and np.shares_memory(a.data, data)
    # the Leibniz ladder's ring slices and their all-live brackets
    ring = rng.normal(size=(5, 4, 6) + grid.shape[1:])
    a_t = fields_module.RingSlice.of(ring, grid, 2, 1, 2)
    assert np.shares_memory(a_t.stack, ring)
    ab = wedge(a_t, a_t, "bracket")
    assert ab.live.all() and np.shares_memory(ab.data, ab.stack)
