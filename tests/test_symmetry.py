"""Generator vector fields, cutoff, symmetry and Killing residuals."""

import numpy as np
import pytest

from pcgrav.fields import FormField, MetricField
from pcgrav.geometry import (SchwarzschildIsotropic, minkowski_metric,
                             minkowski_tetrad)
from pcgrav.grid import Grid4, diff_axis, region_max
from pcgrav.symmetry import (CutoffFunction, PoincareElement,
                             axis_derivatives, generated_vector_field,
                             lie_derivative_metric, poincare_generators,
                             symmetry_residual)

GRID = Grid4(2.0, 9)


def test_translation_field_is_constant():
    xi = generated_vector_field(PoincareElement.from_name("P0"), GRID)
    assert np.all(xi[0] == 1.0) and np.all(xi[1:] == 0.0)


def test_rotation_field_components():
    # L3 generates (0, -y, x, 0)
    xi = generated_vector_field(PoincareElement.from_name("L3"), GRID)
    x = np.broadcast_to(GRID.coordinate(1), GRID.shape)
    y = np.broadcast_to(GRID.coordinate(2), GRID.shape)
    assert np.all(xi[0] == 0.0) and np.all(xi[3] == 0.0)
    assert np.array_equal(xi[1], -y)
    assert np.array_equal(xi[2], x)


def test_boost_field_components():
    xi = generated_vector_field(PoincareElement.from_name("K1"), GRID)
    t = np.broadcast_to(GRID.coordinate(0), GRID.shape)
    x = np.broadcast_to(GRID.coordinate(1), GRID.shape)
    assert np.array_equal(xi[0], x) and np.array_equal(xi[1], t)


def fd_vector_bracket(xi, zeta, grid):
    """[xi, zeta]^mu = xi^nu d_nu zeta^mu - zeta^nu d_nu xi^mu by stencils."""
    out = np.zeros_like(xi)
    for nu in range(4):
        out += xi[nu] * diff_axis(zeta, 1 + nu, grid.spacing)
        out -= zeta[nu] * diff_axis(xi, 1 + nu, grid.spacing)
    return out


def test_generator_map_is_an_antihomomorphism():
    from pcgrav.algebras import poincare_algebra
    algebra = poincare_algebra()
    rng = np.random.default_rng(9)
    for _ in range(5):
        cx = rng.integers(-2, 3, size=10)
        cy = rng.integers(-2, 3, size=10)
        x = PoincareElement.from_coefficients(cx)
        y = PoincareElement.from_coefficients(cy)
        bracket = PoincareElement.from_coefficients(
            algebra.bracket_eval(list(cx), list(cy)))
        lhs = generated_vector_field(bracket, GRID)
        rhs = fd_vector_bracket(generated_vector_field(x, GRID),
                                generated_vector_field(y, GRID), GRID)
        assert np.allclose(lhs, -rhs, atol=1e-10)


def test_rotation_part_must_be_eta_antisymmetric():
    with pytest.raises(ValueError, match="antisymmetric"):
        PoincareElement("bad", np.zeros(4), np.eye(4))


def test_coefficients_round_trip():
    from pcgrav.algebras import poincare_coefficients
    for name in ("P2", "L1", "K3"):
        el = PoincareElement.from_name(name)
        assert el.coefficients() == poincare_coefficients(name)


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

def test_cutoff_plateaus_and_midpoint():
    c = CutoffFunction(2.0, 6.0)
    assert c.profile(1.0) == 0.0
    assert c.profile(12.0) == 1.0
    assert c.profile(4.0) == pytest.approx(0.5)


def test_cutoff_on_grid_modes():
    # node i sits at x^mu = i - 8 on every axis
    c, grid = CutoffFunction(2.0, 6.0), Grid4(8.0, 17)
    four = c.on_grid(grid)
    spatial = np.broadcast_to(
        c.on_grid(Grid4(8.0, 17, radius_mode="spatial")), grid.shape)
    assert four[8, 9, 8, 8] == 0.0          # (0, 1, 0, 0)
    assert four[15, 9, 8, 8] > 0.99         # (7, 1, 0, 0): t counts
    assert spatial[15, 9, 8, 8] == 0.0      # t does not


def test_cutoff_monotone_and_c2_at_junctions():
    c = CutoffFunction(1.0, 3.0)
    rho = np.linspace(0.5, 3.5, 4001)
    vals = c.profile(rho)
    assert np.all(np.diff(vals) >= -1e-15)
    h = rho[1] - rho[0]
    second = np.abs(np.diff(vals, 2)) / h ** 2
    assert second.max() < 2.0  # bounded curvature through the junctions


def test_cutoff_validation():
    with pytest.raises(ValueError):
        CutoffFunction(3.0, 3.0)


def test_extension_by_zero_is_supported_outside():
    grid = Grid4(4.0, 9, inner_radius=1.5)
    c = CutoffFunction(1.5, 3.0)
    ups = c.on_grid(grid)
    inside = ~grid.region_mask()
    assert np.all(ups[inside] == 0.0)
    anything = np.broadcast_to(grid.coordinate(0), grid.shape) ** 2 + 3.0
    assert np.all((ups * anything)[inside] == 0.0)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_poincare_has_ten_generators():
    assert len(poincare_generators()) == 10


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def test_minkowski_symmetry_residuals_vanish_exactly():
    e = minkowski_tetrad(GRID)
    for gen in poincare_generators():
        assert symmetry_residual(e, gen).max_abs() == 0.0, gen.name


def test_minkowski_killing_residuals_vanish():
    g = minkowski_metric(GRID)
    for gen in poincare_generators():
        norm = lie_derivative_metric(g, gen).region_norm()
        assert norm == 0.0, gen.name


def schwarzschild_setup(n, half_width=6.0, mass=0.5, core=0.8, r=2.0):
    grid = Grid4(half_width, n, inner_radius=r, radius_mode="spatial")
    schw = SchwarzschildIsotropic(mass, core_radius=core)
    return grid, schw.tetrad(grid), schw.metric(grid)


def test_static_spherical_residuals_decay():
    for name in ("P0", "L3"):
        gen = PoincareElement.from_name(name)
        norms = []
        for n in (13, 17, 25):
            grid, e, _ = schwarzschild_setup(n)
            norms.append(symmetry_residual(e, gen).region_norm())
        if max(norms) < 1e-12:
            continue  # time translation is exact on the static chart
        hs = [12.0 / (n - 1) for n in (13, 17, 25)]
        slope = np.polyfit(np.log(hs), np.log(norms), 1)[0]
        assert slope >= 1.7, (name, norms)


def test_time_translation_residual_is_roundoff_on_static_chart():
    # stencil sums like -3a + 4a - a leave 1-ulp noise on constant data
    grid, e, g = schwarzschild_setup(13)
    assert symmetry_residual(
        e, PoincareElement.from_name("P0")).max_abs() <= 1e-14
    norm = lie_derivative_metric(
        g, PoincareElement.from_name("P0")).region_norm()
    assert norm <= 1e-14


def test_spatial_translation_residual_does_not_decay():
    gen = PoincareElement.from_name("P1")
    norms = []
    for n in (13, 25):
        grid, e, _ = schwarzschild_setup(n)
        norms.append(symmetry_residual(e, gen).region_norm())
    assert norms[1] > 0.5 * norms[0] and norms[1] > 1e-3


def test_killing_residuals_separate_rotations_from_boosts():
    grid, _, g = schwarzschild_setup(17)
    rot = lie_derivative_metric(
        g, PoincareElement.from_name("L2")).region_norm()
    boost = lie_derivative_metric(
        g, PoincareElement.from_name("K1")).region_norm()
    assert boost > 1e-2
    assert boost > 20.0 * rot


def test_boost_killing_residual_stays_above_threshold():
    norms = []
    for n in (17, 25):
        grid = Grid4(20.0, n, inner_radius=4.0, radius_mode="spatial")
        g = SchwarzschildIsotropic(1.0).metric(grid)
        norm = lie_derivative_metric(
            g, PoincareElement.from_name("K1")).region_norm()
        norms.append(norm)
    assert all(n > 1e-2 for n in norms)       # far above the pass scale
    assert norms[1] == pytest.approx(2.5001, rel=0.05)  # regression value


def test_pointwise_killing_bound_follows_symmetry_residual():
    # where ||X.e|| < eps the metric Lie derivative is bounded by
    # 8 ||e|| eps up to the finite-difference product-rule defect
    grid, e, g = schwarzschild_setup(17)
    for name in ("L3", "K1", "P1"):
        gen = PoincareElement.from_name(name)
        xe = symmetry_residual(e, gen)
        lg = lie_derivative_metric(g, gen).data
        mask = grid.region_mask() & grid.interior_mask()
        full = (4, 4) + grid.shape
        e_max = np.abs(np.broadcast_to(e.data, full)).reshape(
            (-1,) + grid.shape).max(axis=0)
        xe_max = np.abs(np.broadcast_to(xe.data, full)).reshape(
            (-1,) + grid.shape).max(axis=0)
        lg_max = np.abs(np.broadcast_to(lg, full)).reshape(
            (-1,) + grid.shape).max(axis=0)
        slack = lg_max[mask] - 8.0 * (e_max * xe_max)[mask]
        assert slack.max() <= 0.02, (name, slack.max())


# ---------------------------------------------------------------------------
# shared derivatives against the per-generator reference
# ---------------------------------------------------------------------------

def reference_transport(data, x, grid):
    """xi^lambda d_lambda, differentiating the whole field per generator."""
    out = np.zeros_like(data)
    xi = generated_vector_field(x, grid)
    for lam in range(4):
        if np.any(xi[lam] != 0.0):
            out += xi[lam] * diff_axis(data, 2 + lam, grid.spacing)
    return out


def reference_symmetry_residual(e, x):
    out = reference_transport(e.data, x, e.grid)
    out += np.einsum("na...,nm->ma...", e.data, x.rotation)
    out -= np.einsum("ab,mb...->ma...", x.rotation, e.data)
    return out


def reference_killing_residual(g, x):
    out = reference_transport(g.data, x, g.grid)
    out += np.einsum("ln...,lm->mn...", g.data, x.rotation)
    out += np.einsum("ml...,ln->mn...", g.data, x.rotation)
    return out


def dense_fields():
    """Random 1-form and metric with every component live at every t."""
    grid = Grid4(2.0, 9, inner_radius=0.5)
    rng = np.random.default_rng(2026)
    e = FormField(grid, 1, 1, rng.normal(size=(4, 4) + grid.shape))
    a = rng.normal(size=(4, 4) + grid.shape)
    return grid, e, MetricField(grid, a + a.swapaxes(0, 1))


def test_shared_derivatives_match_the_reference_exactly():
    grid, e, g = dense_fields()
    gens = poincare_generators()
    e_set = axis_derivatives(e, gens)
    g_set = axis_derivatives(g, gens)
    for x in gens:
        want = reference_symmetry_residual(e, x)
        assert np.array_equal(symmetry_residual(e, x, e_set).data, want)
        assert np.array_equal(symmetry_residual(e, x).data, want)
        want = reference_killing_residual(g, x)
        for derivatives in (g_set, None):
            lg = lie_derivative_metric(g, x, derivatives)
            got, norm = lg.data, lg.region_norm()
            assert np.array_equal(got, want), x.name
            assert norm == region_max(want.reshape((-1,) + want.shape[2:]),
                                      grid)


def test_shared_derivatives_match_the_reference_for_a_general_element():
    grid, e, g = dense_fields()
    # a translation plus rotations and boosts sharing rows and columns
    x = PoincareElement.from_coefficients(
        [0.5, -1.0, 0.0, 2.0, 1.0, -2.0, 0.5, 3.0, 0.0, -1.5])
    assert np.count_nonzero(x.rotation) > 4
    # the sparse loop adds the rotation terms one at a time, the reference
    # sums them first: entries may differ by a few ulp of their largest term,
    # which near a cancellation is not small relative to the entry itself
    e_set = axis_derivatives(e, [x])
    g_set = axis_derivatives(g, [x])
    cases = [(symmetry_residual(e, x, e_set).data,
              reference_symmetry_residual(e, x)),
             (lie_derivative_metric(g, x, derivatives=g_set).data,
              reference_killing_residual(g, x))]
    for got, want in cases:
        np.testing.assert_allclose(got, want, rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max())
