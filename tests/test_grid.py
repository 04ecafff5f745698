"""Stencils, masks, and quadrature."""

import math
import tracemalloc

import numpy as np
import pytest

from pcgrav.grid import (FACE_LAYERS, Grid4, _norm_mask, _region_mask,
                         diff_axis, diff_ring, integrate_samples, region_max,
                         restrict)
from pcgrav.scenarios import DEFAULT_THRESHOLDS, classify_sequence


def test_grid_geometry():
    g = Grid4(2.0, 9)
    assert g.spacing == 0.5
    c = g.axis_coordinates()
    assert c[0] == -2.0 and c[-1] == 2.0 and c[4] == 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid4(1.0, 8)
    with pytest.raises(ValueError):
        Grid4(1.0, 3)
    with pytest.raises(ValueError):
        Grid4(-1.0, 9)
    with pytest.raises(ValueError, match="radius mode"):
        Grid4(1.0, 9, 0.5, "3d")
    with pytest.raises(ValueError, match="radius mode"):
        Grid4(1.0, 9).radius("3d")


def test_stencils_exact_on_quadratics_everywhere():
    g = Grid4(1.5, 11)
    x = np.broadcast_to(g.coordinate(2), g.shape)
    values = 3.0 + 2.0 * x - 1.25 * x ** 2
    exact = 2.0 - 2.5 * x
    assert np.abs(diff_axis(values, 2, g.spacing) - exact).max() < 1e-13


def test_interior_stencils_exact_on_quartics():
    g = Grid4(1.5, 11)
    x = np.broadcast_to(g.coordinate(0), g.shape)
    values = x ** 4 - x ** 3
    exact = 4.0 * x ** 3 - 3.0 * x ** 2
    err = np.abs(diff_axis(values, 0, g.spacing) - exact)
    assert err[2:-2].max() < 1e-12
    assert err.max() > 1e-3  # one-sided layers are only 2nd order


def one_expression_stencil(values, axis, spacing):
    """Reference: each stencil written as one whole-array expression."""
    a = np.moveaxis(values, axis, 0)
    out = np.empty_like(a)
    h = spacing
    out[2:-2] = (a[:-4] - 8.0 * a[1:-3] + 8.0 * a[3:-1] - a[4:]) / (12.0 * h)
    out[0] = (-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * h)
    out[1] = (a[2] - a[0]) / (2.0 * h)
    out[-2] = (a[-1] - a[-3]) / (2.0 * h)
    out[-1] = (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("n", [5, 9])
def test_diff_axis_matches_one_expression_stencil_bit_for_bit(n):
    g = Grid4(1.5, n)
    rng = np.random.default_rng(n)
    # component-leading, as ext_d passes it: every axis, the leading one too
    values = rng.normal(size=(6,) + g.shape)
    for axis in range(5):
        assert np.array_equal(diff_axis(values, axis, g.spacing),
                              one_expression_stencil(values, axis, g.spacing))
    # grid-only samples named by negative axes, as the mass integrals do
    values = rng.normal(size=g.shape)
    for axis in range(-4, 0):
        assert np.array_equal(diff_axis(values, axis, g.spacing),
                              one_expression_stencil(values, axis, g.spacing))
    # views that are not C-contiguous: the strided spatial block of a slice
    # metric, a stride-0 broadcast of a constant one, a transposed array
    views = [(rng.normal(size=(4, 4) + g.shape[1:])[1:, 1:], (-3, -2, -1)),
             (np.broadcast_to(rng.normal(size=(4, 4, 1, 1, 1)),
                              (4, 4) + g.shape[1:]), (-3, -2, -1)),
             (rng.normal(size=(3,) + g.shape).transpose(0, 3, 1, 4, 2),
              (1, 2, 3, 4))]
    for values, axes in views:
        for axis in axes:
            want = one_expression_stencil(values, axis, g.spacing)
            assert np.array_equal(diff_axis(values, axis, g.spacing), want)
            out = np.empty(values.shape)
            assert diff_axis(values, axis, g.spacing, out=out) is out
            assert np.array_equal(out, want)
    with pytest.raises(ValueError, match="C-contiguous"):
        diff_axis(values, 1, g.spacing, out=np.empty(values.shape[::-1]).T)


@pytest.mark.parametrize("n", [5, 9])
def test_ring_t_derivative_matches_diff_axis_bit_for_bit(n):
    g = Grid4(1.5, n)
    rng = np.random.default_rng(n)
    values = rng.normal(size=g.shape)
    values[n // 2, 1, 2, 3] = np.nan     # spreads to the t stencil's reach
    want = diff_axis(values, 0, g.spacing)
    ring = np.empty((5,) + g.shape[1:])
    for t in range(n):                    # the four face layers included
        ring.fill(np.nan)                 # a slot it must not read is NaN
        for i in range(max(t - 2, 0), min(t + 3, n)):
            ring[i % 5] = values[i]
        out = np.empty(g.shape[1:])
        assert diff_ring(ring, t, n, g.spacing, out) is out
        assert np.array_equal(out, want[t], equal_nan=True)


def test_windows_lie_inside_the_grid():
    g = Grid4(1.5, 9)
    assert g.window(2).shape == (1, 9, 9, 9)
    assert g.window(8).spacing == g.spacing
    for t in (-1, 9, 10):
        with pytest.raises(ValueError, match="window"):
            g.window(t)


def test_diff_axis_along_extent_one_is_exact_zero_or_nan():
    g = Grid4(1.5, 9)
    values = np.random.default_rng(1).normal(size=(3, 1, 9, 9, 9))
    values[1, 0, 2, 3, 4] = np.nan
    out = diff_axis(values, 1, g.spacing)
    assert out.shape == values.shape
    assert np.isnan(out[1, 0, 2, 3, 4])
    assert np.isnan(out).sum() == 1
    finite = ~np.isnan(out)
    assert np.all(out[finite] == 0.0)


def node_weights(grid):
    """Product-trapezoid quadrature weights, shape (N,N,N,N): the reference
    that ``integrate_samples`` streams one t slice at a time."""
    w = np.full(grid.points, grid.spacing)
    w[0] = w[-1] = 0.5 * grid.spacing
    return (w[:, None, None, None] * w[None, :, None, None]
            * w[None, None, :, None] * w[None, None, None, :])


def test_weights_sum_to_box_volume():
    g = Grid4(2.0, 9)
    assert abs(node_weights(g).sum() - 4.0 ** 4) < 1e-10


def test_integrate_constant_is_volume():
    g = Grid4(2.0, 9)
    assert integrate_samples(np.ones(g.shape), g) == pytest.approx(256.0, abs=1e-10)


def test_integrate_zero():
    g = Grid4(2.0, 9)
    assert integrate_samples(np.zeros(g.shape), g) == 0.0


def test_integrate_radial_gaussian_against_1d_oracle():
    g = Grid4(5.0, 17)
    rho = g.radius("4d")
    samples = np.exp(-0.5 * rho ** 2)
    got = integrate_samples(samples, g)
    # independent oracle: 4D solid angle 2 pi^2 times a dense 1D radial rule
    r = np.linspace(0.0, 12.0, 200001)
    oracle = 2.0 * math.pi ** 2 * np.trapezoid(r ** 3 * np.exp(-0.5 * r ** 2), r)
    assert got == pytest.approx(oracle, rel=1e-2)


SAMPLE_SHAPES = [(9, 9, 9, 9), (1, 9, 9, 9), (9, 1, 9, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("shape", SAMPLE_SHAPES)
def test_integrate_samples_is_the_fsum_of_the_whole_grid_products(shape):
    # samples over twelve decades: the sum reads every product's low bits
    g = Grid4(1.2, 9)
    rng = np.random.default_rng(7)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
    want = math.fsum((values * node_weights(g)).ravel().tolist())
    assert integrate_samples(values, g).hex() == want.hex()


@pytest.mark.parametrize("shape", [(9, 9, 9, 9), (1, 9, 9, 9)])
def test_an_overflowing_quadrature_sum_raises(shape):
    # h = 1: every product is finite, their sum is not
    g = Grid4(4.0, 9)
    with pytest.raises(OverflowError):
        integrate_samples(np.full(shape, 1e307), g)


def test_integrate_samples_on_static_samples_peaks_below_one_grid_array():
    # the products stream one t slice at a time: no weights, products or
    # list of the whole grid
    g = Grid4(20.0, 25)
    values = np.random.default_rng(8).normal(size=(1,) + g.shape[1:])
    integrate_samples(values, g)
    tracemalloc.start()
    try:
        integrate_samples(values, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < np.zeros(g.shape).nbytes, peak


def full_interior(grid):
    """Nodes at least FACE_LAYERS nodes from every face, as one array."""
    mask = np.zeros(grid.shape, dtype=bool)
    inner = slice(FACE_LAYERS, grid.points - FACE_LAYERS)
    mask[inner, inner, inner, inner] = True
    return mask


@pytest.mark.parametrize("shape", SAMPLE_SHAPES)
@pytest.mark.parametrize("mode", ["4d", "spatial"])
def test_norm_masks_are_the_reduced_masks_of_the_whole_grid(mode, shape):
    g = Grid4(2.0, 9, inner_radius=1.2, radius_mode=mode)
    assert np.array_equal(g.interior_mask(), full_interior(g))
    static = tuple(ax for ax, n in enumerate(shape) if n == 1)
    assert np.array_equal(
        g.interior_mask(shape),
        full_interior(g).any(axis=static, keepdims=True))
    want = (g.region_mask() & full_interior(g)).any(axis=static,
                                                    keepdims=True)
    _norm_mask.cache_clear()
    got = _norm_mask(g, shape)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_the_norm_mask_of_static_samples_is_built_at_their_extents():
    # spatial region and samples both static on t: no N^4 mask, not
    # even a temporary one
    g = Grid4(20.0, 25, inner_radius=12.0, radius_mode="spatial")
    _norm_mask.cache_clear()
    _region_mask.cache_clear()
    g.region_mask()
    tracemalloc.start()
    try:
        mask = _norm_mask(g, (1,) + g.shape[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.shape == (1,) + g.shape[1:]
    assert peak < np.zeros(g.shape, dtype=bool).nbytes, peak


def test_region_masks():
    g = Grid4(2.0, 9, inner_radius=1.0)
    mask = g.region_mask()
    assert not mask[4, 4, 4, 4]          # origin inside the ball
    assert mask[0, 0, 0, 0]              # corner outside
    # t-axis node: outside the 4d ball but inside the spatial one
    spatial = Grid4(2.0, 9, 1.0, "spatial").region_mask()
    assert mask[0, 4, 4, 4] and not spatial[0, 4, 4, 4]
    inner = g.interior_mask()
    assert not inner[1, 4, 4, 4] and inner[2, 4, 4, 4]


def test_region_max_masks_ball_and_faces():
    g = Grid4(2.0, 9, inner_radius=1.0)
    values = np.zeros(g.shape)
    values[4, 4, 4, 4] = 10.0            # inside the ball: ignored
    values[0, 2, 2, 2] = 5.0             # on a box face: ignored
    values[2, 2, 2, 2] = 1.5
    assert region_max([values], g) == 1.5


def test_region_max_component_axes_lead():
    g = Grid4(2.0, 9, inner_radius=1.0)
    values = np.zeros((2, 3) + g.shape)
    values[1, 2, 2, 2, 2, 2] = -7.0
    assert region_max(values.reshape((-1,) + g.shape), g) == 7.0


@pytest.mark.parametrize("component", [0, 1, 2])
def test_region_max_propagates_a_nan_in_any_component(component):
    g = Grid4(10.0, 9)
    values = np.ones((3,) + g.shape)
    values[component, 4, 4, 4, 2] = np.nan
    norm = region_max(values, g)
    assert math.isnan(norm)
    entry = classify_sequence([1.0, norm, 0.25], [0.5, 0.25, 0.125],
                              DEFAULT_THRESHOLDS, (9, 13, 17))
    assert entry["kind"] == "non-finite"
    assert entry["reason"] == "norm nan at N = 13"
    # the slices of a window see it in the row that holds it, and only there
    rows = [region_max(values[:, t:t + 1], g.window(t)) for t in range(2, 7)]
    assert [math.isnan(v) for v in rows] == [False, False, True, False, False]
    assert math.isnan(float(np.max(rows)))


@pytest.mark.parametrize("mode", ["4d", "spatial"])
def test_region_max_on_windows_reads_rows_of_the_grid_mask(mode):
    g = Grid4(2.0, 9, inner_radius=1.2, radius_mode=mode)
    rng = np.random.default_rng(5)
    values = rng.random((2,) + g.shape)
    static = values[:, :1]
    for t in (0, 2, 4, 6, 8):
        w = g.window(t)
        assert restrict(static, w) is static
        piece = restrict(values, w)
        assert piece.shape == (2,) + w.shape
        mask = ((g.radius(mode) > 1.2) & g.interior_mask())[t:t + 1]
        want = float(piece[:, mask].max()) if mask.any() else 0.0
        assert region_max(piece, w) == want
        # a static field on a window: the max over its row's nodes
        want = float(np.broadcast_to(static, piece.shape)[:, mask].max()
                     ) if mask.any() else 0.0
        assert region_max(static, w) == want
    assert np.array_equal(g.window(3).coordinate(0), g.coordinate(0)[3:4])
    assert np.array_equal(g.window(3).coordinate(2), g.coordinate(2))


def test_region_max_warns_on_an_empty_window_only_if_the_region_is_empty():
    import warnings
    # the 4d ball holds every interior node of the middle t slice, not of
    # the slices at t = +-4; the spatial one holds every interior node
    g = Grid4(8.0, 9, inner_radius=7.0)
    spatial = Grid4(8.0, 9, inner_radius=7.0, radius_mode="spatial")
    values = np.ones(g.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert region_max([values[4:5]], g.window(4)) == 0.0
        assert region_max([values[2:3]], g.window(2)) == 1.0
    with pytest.warns(UserWarning, match="norm region is empty"):
        assert region_max([values[2:3]], spatial.window(2)) == 0.0


def test_region_max_mask_cache_matches_a_fresh_mask():
    from pcgrav.grid import _norm_mask, _region_mask
    g = Grid4(2.0, 9, inner_radius=0.5)
    rng = np.random.default_rng(3)
    # largest near the centre, so each region has its own maximum
    values = np.exp(-g.radius("4d")) * (1.0 + 0.1 * rng.random((3,) + g.shape))
    # grids equal but for their balls: each must get its own mask
    grids = [Grid4(2.0, 9, 0.7, "4d"), Grid4(2.0, 9, 1.2, "spatial")]

    def fresh(grid):
        mask = ((grid.radius(grid.radius_mode) > grid.inner_radius)
                & grid.interior_mask())
        return float(np.abs(values)[:, mask].max())

    assert fresh(grids[0]) != fresh(grids[1])
    for order in (grids, grids[::-1]):
        _region_mask.cache_clear()
        _norm_mask.cache_clear()
        for grid in order + order:      # the second pass reads the cache
            assert region_max(values, grid) == fresh(grid)
    for grid in grids:
        for cached in (grid.region_mask(), _norm_mask(grid, grid.shape)):
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0, 0, 0] = True
