"""Surface-integral mass observables against closed-form oracles."""

import numpy as np
import pytest

from pcgrav.fields import MetricField, dense, live_components
from pcgrav.geometry import SchwarzschildIsotropic, minkowski_metric
from pcgrav.grid import Grid4
from pcgrav.mass import (INTERPOLATION_ORDER, MassDomainError, _interpolate_live,
                         _spatial, adm_energy, extrapolate_in_radius,
                         interpolate_slice, komar_mass, positivity_check,
                         sphere_quadrature)

RADII = [8.0, 12.0, 16.0]


def big_grid(n=33):
    return Grid4(20.0, n, inner_radius=4.0)


def test_quadrature_weights_sum_to_sphere_area():
    weights = sphere_quadrature()[3] * 3.0 ** 2
    assert weights.sum() == pytest.approx(4.0 * np.pi * 9.0, rel=1e-12)


def test_quadrature_is_built_once_and_read_only():
    first, second = sphere_quadrature(), sphere_quadrature()
    assert all(a is b for a, b in zip(first, second))
    for array in first:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_quadrature_integrates_low_harmonics_exactly():
    n, _, _, w = sphere_quadrature()
    # moments of the unit sphere: <n_i n_j> = (4 pi / 3) delta_ij
    for i in range(3):
        for j in range(3):
            got = (w * n[:, i] * n[:, j]).sum()
            expected = 4.0 * np.pi / 3.0 if i == j else 0.0
            assert got == pytest.approx(expected, abs=1e-12)
    assert (w * n[:, 0] ** 2 * n[:, 1] ** 2).sum() == \
        pytest.approx(4.0 * np.pi / 15.0, abs=1e-12)


def test_extrapolation_recovers_leading_coefficient():
    radii = [8.0, 12.0, 16.0]
    values = [2.0 + 3.0 / r + 0.5 / r ** 2 for r in radii]
    a0, slope = extrapolate_in_radius(radii, values)
    assert a0 == pytest.approx(2.0, abs=1e-10)
    assert slope == pytest.approx(1.0, abs=0.2)


def test_adm_minkowski_is_zero_at_every_radius():
    report = adm_energy(minkowski_metric(big_grid(17)), RADII)
    assert report["values"] == [0.0, 0.0, 0.0]
    assert report["extrapolated"] == 0.0


def test_komar_minkowski_is_zero():
    report = komar_mass(minkowski_metric(big_grid(17)), RADII)
    assert all(abs(v) < 1e-13 for v in report["values"])


@pytest.fixture(scope="module")
def schwarzschild_metric():
    return SchwarzschildIsotropic(1.0).metric(big_grid())


def test_adm_matches_finite_radius_oracle(schwarzschild_metric):
    schw = SchwarzschildIsotropic(1.0)
    report = adm_energy(schwarzschild_metric, RADII)
    for rho, value in zip(report["radii"], report["values"]):
        assert value == pytest.approx(
            float(schw.adm_integrand_energy(rho)), rel=5e-4)
    assert report["extrapolated"] == pytest.approx(1.0, rel=0.01)


def test_adm_linear_in_mass():
    for mass in (0.5, 2.0):
        metric = SchwarzschildIsotropic(mass).metric(big_grid())
        report = adm_energy(metric, RADII)
        assert report["extrapolated"] == pytest.approx(mass, rel=0.01)


def test_komar_matches_mass_and_adm(schwarzschild_metric):
    komar = komar_mass(schwarzschild_metric, RADII)
    assert komar["extrapolated"] == pytest.approx(1.0, rel=0.01)
    adm = adm_energy(schwarzschild_metric, RADII)
    assert komar["extrapolated"] == pytest.approx(
        adm["extrapolated"], rel=0.02)


def test_adm_rejects_non_flat_slice():
    grid = big_grid(17)
    data = np.zeros((4, 4) + grid.shape)
    data[0, 0] = -1.0
    for i in range(1, 4):
        data[i, i] = 3.0
    with pytest.raises(MassDomainError, match="flat"):
        adm_energy(MetricField(grid, data), RADII)


def test_adm_counts_a_nan_slice_as_not_flat():
    # "M": 1e308 overflows the chart: the diagonal of the metric is NaN
    grid = big_grid(9)
    g = SchwarzschildIsotropic(1e308).metric(grid)
    assert np.isnan(np.diagonal(g.data)).all()
    with pytest.raises(MassDomainError, match="not asymptotically flat.*nan"):
        adm_energy(g, [8.0, 12.0])


def test_komar_rejects_non_stationary_metric():
    grid = big_grid(17)
    t = np.broadcast_to(grid.coordinate(0), grid.shape)
    data = np.zeros((4, 4) + grid.shape)
    data[0, 0] = -(1.0 + 0.01 * t ** 2)
    for i in range(1, 4):
        data[i, i] = 1.0
    with pytest.raises(MassDomainError, match="stationary"):
        komar_mass(MetricField(grid, data), RADII)


@pytest.mark.parametrize("integral", [adm_energy, komar_mass])
def test_radii_must_not_be_empty(integral):
    with pytest.raises(ValueError, match="at least one radius"):
        integral(minkowski_metric(big_grid(9)), [])


def test_radius_must_fit_in_box():
    with pytest.raises(ValueError, match="box"):
        adm_energy(minkowski_metric(big_grid(17)), [19.5])


def test_positivity_verdicts():
    ok = positivity_check(1.0, (0.0, 0.0, 0.0))
    assert ok["passed"] and ok["mass"] == 1.0
    flat = positivity_check(0.0, (0.0, 0.0, 0.0))
    assert flat["passed"] and flat["mass"] == 0.0 and "rigidity" in flat["note"]
    bad = positivity_check(-0.1, (0.0, 0.0, 0.0))
    assert not bad["passed"]
    assert "dominant energy condition" in bad["message"]
    assert positivity_check(1.0, (0.0, 0.6, 0.8))["mass"] == \
        pytest.approx(0.0, abs=1e-12)

def test_komar_counts_a_nan_residual_as_non_stationary():
    grid = big_grid(9)
    data = np.broadcast_to(minkowski_metric(grid).data,
                           (4, 4) + grid.shape).copy()
    data[0, 0, 4] = np.nan
    with pytest.raises(MassDomainError, match="stationary.*nan"):
        komar_mass(MetricField(grid, data), [8.0, 12.0])


def test_non_finite_surface_integral_names_the_quantity():
    grid = big_grid(9)
    data = np.broadcast_to(minkowski_metric(grid).data,
                           (4, 4) + grid.shape).copy()
    # one NaN on a box edge of the central slice: the flatness probe at
    # rho = 12 never reads it, the face stencil of d_j g_ij carries it
    # into the surface integral
    data[1, 1, 4, 0, 0, 4] = np.nan
    with pytest.raises(MassDomainError, match="ADM energy is nan"):
        adm_energy(MetricField(grid, data), [8.0, 12.0])


# ---------------------------------------------------------------------------
# interpolate_slice
# ---------------------------------------------------------------------------

def _node_weights(frac):
    nodes = np.arange(INTERPOLATION_ORDER + 1, dtype=float)
    weights = np.ones_like(nodes)
    for k in range(len(nodes)):
        for m in range(len(nodes)):
            if m != k:
                weights[k] *= (frac - nodes[m]) / (nodes[k] - nodes[m])
    return weights


def _stencil_bases(grid, points):
    order = INTERPOLATION_ORDER
    coords = (np.asarray(points) + grid.half_width) / grid.spacing
    base = np.floor(coords).astype(int) - (order - 1) // 2
    base = np.clip(base, 0, grid.points - order - 1)
    return base, coords - base


def _per_node_reference(values, grid, points):
    """The interpolation one node at a time: a block slice and a
    contraction of that block alone per node."""
    width = INTERPOLATION_ORDER + 1
    base, frac = _stencil_bases(grid, points)
    out = np.empty((len(points),) + values.shape[:-3])
    for p in range(len(points)):
        wx, wy, wz = (_node_weights(frac[p, a]) for a in range(3))
        block = values[..., base[p, 0]:base[p, 0] + width,
                       base[p, 1]:base[p, 1] + width,
                       base[p, 2]:base[p, 2] + width]
        out[p] = np.einsum("i,j,k,...ijk->...", wx, wy, wz, block)
    return out


def _probe_points(grid):
    """The three mass spheres, and nodes whose stencil a box face clips."""
    directions = sphere_quadrature()[0]
    L, h = grid.half_width, grid.spacing
    faces = np.array([[-L, 0.3, -0.7], [L, L, L], [-L, -L, L - 0.4 * h],
                      [L - 0.5 * h, 1.1, -L + 0.2 * h], [0.1, -L + h, 2.3],
                      [3.0, 4.0, L - 1.5 * h]])
    return np.concatenate([rho * directions for rho in RADII] + [faces])


def _samples(shape, n, seed=17):
    return np.random.default_rng(seed).standard_normal(shape + (n, n, n))


@pytest.mark.parametrize("n", [17, 33])
@pytest.mark.parametrize("components", [(), (3,), (3, 3)])
def test_interpolation_matches_the_per_node_loop_bit_for_bit(n, components):
    grid = big_grid(n)
    points = _probe_points(grid)
    base, _ = _stencil_bases(grid, points)
    assert (base == 0).any() and (base == n - 4).any()  # clipped stencils
    dense = _samples(components, n)
    # the layouts the surface integrals pass: fresh arrays, the spatial
    # block of a metric slice, and a slice broadcast from fewer nodes
    layouts = [dense, np.broadcast_to(_samples(components, 1),
                                      components + (n, n, n))]
    if components == (3, 3):
        layouts.append(_samples((4, 4), n)[1:, 1:])
    for values in layouts:
        got = interpolate_slice(values, grid, points)
        want = _per_node_reference(values, grid, points)
        assert got.shape == want.shape == (len(points),) + components
        assert got.tobytes() == want.tobytes()


def test_interpolation_does_not_depend_on_the_sample_layout():
    grid = big_grid(17)
    points = _probe_points(grid)
    values = _samples((3,), 17)
    got = interpolate_slice(np.asfortranarray(values), grid, points)
    assert got.tobytes() == interpolate_slice(values, grid, points).tobytes()


@pytest.mark.parametrize("components, planted", [((), ()), ((3,), (1,))])
def test_a_nan_sample_reaches_exactly_the_nodes_whose_block_holds_it(
        components, planted):
    grid = big_grid(17)
    points = np.concatenate([_probe_points(grid),
                             np.random.default_rng(3).uniform(
                                 -20.0, 20.0, (400, 3))])
    values = _samples(components, 17)
    node = (12, 13, 12)
    values[planted + node] = np.nan
    base, _ = _stencil_bases(grid, points)
    holds = np.all((base <= node) & (node < base + INTERPOLATION_ORDER + 1),
                   axis=1)
    assert 0 < holds.sum() < len(points)
    got = interpolate_slice(values, grid, points)
    expected = np.zeros(got.shape, bool)
    expected[(holds,) + planted] = True
    assert np.array_equal(np.isnan(got), expected)


def test_interpolation_is_exact_for_cubics_in_each_variable():
    grid = big_grid(17)
    u = grid.axis_coordinates() / grid.half_width
    coeffs = np.random.default_rng(5).standard_normal((4, 4, 4))

    def cubic(x, y, z):
        return sum(coeffs[a, b, c] * x ** a * y ** b * z ** c
                   for a in range(4) for b in range(4) for c in range(4))

    values = cubic(u[:, None, None], u[None, :, None], u[None, None, :])
    points = np.concatenate([_probe_points(grid),
                             np.random.default_rng(6).uniform(
                                 -20.0, 20.0, (200, 3))])
    got = interpolate_slice(values, grid, points)
    exact = cubic(*(points / grid.half_width).T)
    assert np.max(np.abs(got - exact)) < 1e-12 * np.abs(values).max()


@pytest.mark.parametrize("n", [17, 33])
@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_live_interpolation_equals_the_full_one(n, mass):
    # the slice metric of a diagonal chart has 3 live components of 9; the
    # dead ones interpolate to the +0.0 the scatter leaves
    grid = big_grid(n)
    metric = (SchwarzschildIsotropic(mass).metric(grid) if mass
              else minkowski_metric(grid))
    spatial, live = _spatial(metric)
    assert np.array_equal(live, np.eye(3, dtype=bool))
    # a seeded off-diagonal component is live too
    mixed = dense(spatial, live)
    mixed[0, 1] = _samples((), n)
    for values in (dense(spatial, live), mixed):
        points = _probe_points(grid)
        full = interpolate_slice(values, grid, points)
        live = live_components(values[:, :, None])    # a t axis
        got = _interpolate_live(values[live], live, grid, points)
        assert np.array_equal(got, full)
        assert got.tobytes() == full.tobytes()


def test_mass_ladders_are_pinned():
    # a change to the order of the float operations of the stencils, the
    # interpolation or the surface sums moves these
    metric = SchwarzschildIsotropic(1.0).metric(big_grid(17))
    adm = adm_energy(metric, RADII)
    assert [v.hex() for v in adm["values"]] == [
        "0x1.388493ccf8543p+0", "0x1.2144e3628c30ap+0", "0x1.18fda90d5844cp+0"]
    assert adm["extrapolated"].hex() == "0x1.0d8a718dc5189p+0"
    komar = komar_mass(metric, RADII)
    assert [v.hex() for v in komar["values"]] == [
        "0x1.01ccdbc557d94p+0", "0x1.001ba791a9698p+0", "0x1.003902d741428p+0"]
    assert komar["extrapolated"].hex() == "0x1.0468ea25c5110p+0"
