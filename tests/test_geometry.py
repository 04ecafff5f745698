"""Reference geometry: blended isotropic chart and its curvature."""

import numpy as np
import pytest

from pcgrav import fields as F
from pcgrav.conventions import ETA_DIAG, LAMBDA_BASES
from pcgrav.geometry import (SchwarzschildIsotropic, _core_coefficients,
                             minkowski_tetrad)
from pcgrav.grid import Grid4


def test_profiles_exact_outside_core():
    schw = SchwarzschildIsotropic(1.0)
    rho = np.array([2.0, 3.0, 5.0, 10.0, 40.0])
    a, b = schw.profiles(rho)
    da_r, db_r = schw.radial_ratios(rho, a, b)
    m = 1.0 / (2.0 * rho)
    assert np.allclose(a, (1 - m) / (1 + m), rtol=1e-14)
    assert np.allclose(b, (1 + m) ** 2, rtol=1e-14)
    assert np.allclose(da_r * rho, 1.0 / (rho ** 2 * (1 + m) ** 2), rtol=1e-13)
    assert np.allclose(db_r * rho, -(1 + m) / rho ** 2, rtol=1e-13)


def test_profiles_smooth_across_junction():
    schw = SchwarzschildIsotropic(1.0)
    eps = 1e-5

    def both(rho):
        a, b = schw.profiles(rho)
        return (a, b) + schw.radial_ratios(rho, a, b)

    lo = both(np.array([2.0 - eps]))
    hi = both(np.array([2.0 + eps]))
    for left, right in zip(lo, hi):
        assert abs(left[0] - right[0]) < 5e-5  # continuous with O(eps) slope


def test_profiles_positive_and_bounded_inside():
    schw = SchwarzschildIsotropic(1.0)
    rho = np.linspace(0.0, 2.0, 201)
    a, b = schw.profiles(rho)
    da_r, db_r = schw.radial_ratios(rho, a, b)
    assert np.all(a > 0.05) and np.all(a < 1.0)
    assert np.all(b > 1.0) and np.all(b < 5.0)
    assert np.isfinite(da_r).all() and np.isfinite(db_r).all()


def test_core_radius_guard():
    with pytest.raises(ValueError):
        SchwarzschildIsotropic(1.0, core_radius=0.5)


def test_metric_matches_tetrad_metric():
    schw = SchwarzschildIsotropic(1.0)
    grid = Grid4(8.0, 9)
    direct = schw.metric(grid)
    via_tetrad = F.metric_from_tetrad(schw.tetrad(grid))
    assert np.allclose(direct.data, via_tetrad.data, atol=1e-14)
    assert F.lorentzian_signature_ok(direct)


def test_closed_form_metric_components():
    # e0 = A dt, ei = B dx^i pulls back eta to diag(-A^2, B^2, B^2, B^2)
    schw = SchwarzschildIsotropic(1.0)
    grid = Grid4(8.0, 9)
    g = schw.metric(grid)
    rho = grid.radius("spatial")
    m = np.where(rho >= schw.core_radius, 1.0 / (2.0 * np.maximum(rho, 1e-9)), 0.0)
    outside = rho >= schw.core_radius
    expected_tt = -(((1 - m) / (1 + m)) ** 2)
    assert np.allclose(g.data[0, 0][outside], expected_tt[outside], rtol=1e-13)
    assert np.all(g.data[0, 1] == 0.0)


def test_mass_zero_is_minkowski():
    schw = SchwarzschildIsotropic(0.0)
    grid = Grid4(4.0, 9)
    e = schw.tetrad(grid)
    assert np.allclose(e.data, minkowski_tetrad(grid).data, atol=1e-15)
    assert schw.connection(grid).max_abs() == 0.0


def test_closed_form_connection_has_small_covariant_torsion():
    schw = SchwarzschildIsotropic(0.5, core_radius=0.8)
    norms = []
    for n in (13, 17, 25):
        grid = Grid4(6.0, n, inner_radius=2.0, radius_mode="spatial")
        torsion = F.cov_d(schw.connection(grid), schw.tetrad(grid))
        norms.append(torsion.region_norm())
    hs = [12.0 / (n - 1) for n in (13, 17, 25)]
    slope = np.polyfit(np.log(hs), np.log(norms), 1)[0]
    assert slope >= 1.7, (norms, slope)


def test_kretschmann_profile_on_mid_shell():
    # curvature two-form against the closed-form curvature-squared profile
    schw = SchwarzschildIsotropic(1.0)
    grid = Grid4(20.0, 33, inner_radius=4.0)
    omega = schw.connection(grid)
    e = schw.tetrad(grid)
    f = F.curvature(omega)
    rho = grid.radius("spatial")
    # shell chosen so stencil reads stay clear of the core continuation
    shell = (rho > 7.0) & (rho < 12.0) & grid.interior_mask()
    einv = F.inverse_tetrad(e)

    # K = R_abmn R^abmn: raise spacetime pairs with the inverse metric,
    # lower internal pairs with eta; antisymmetric pairs double-count by 4
    comps = np.broadcast_to(f.data, (6, 6) + grid.shape)[:, :, shell]
    einv_shell = np.broadcast_to(einv, (4, 4) + grid.shape)[:, :, shell]
    eta = np.asarray(ETA_DIAG, dtype=float)
    ginv = np.einsum("amx,a,anx->mnx", einv_shell, eta, einv_shell)
    k = np.zeros(comps.shape[-1])
    pairs = LAMBDA_BASES[2]
    for s1, (m1, n1) in enumerate(pairs):
        for s2, (m2, n2) in enumerate(pairs):
            gfac = (ginv[m1, m2] * ginv[n1, n2] - ginv[m1, n2] * ginv[n1, m2])
            for i, (a1, b1) in enumerate(pairs):
                efac = eta[a1] * eta[b1]
                k += 4.0 * gfac * efac * comps[s1, i] * comps[s2, i]
    expected = schw.kretschmann(np.broadcast_to(rho, grid.shape)[shell])
    rel = np.abs(k - expected) / expected
    assert rel.max() < 0.02, rel.max()

def _split_by_where(schw, rho, a=None, b=None):
    """Reference (A, B, A'/rho, B'/rho): both branches at every node, the
    core polynomial on rho^2 zeroed outside the core, joined by np.where."""
    rho = np.asarray(rho, dtype=float)
    outside = rho >= schw.core_radius
    rho_safe = np.where(outside, rho, schw.core_radius)
    r2 = np.where(outside, 0.0, rho) ** 2
    m = schw.mass / (2.0 * rho_safe)
    ca, cb = _core_coefficients(schw.mass, schw.core_radius)
    pa = sum(c * r2 ** k for k, c in enumerate(ca))
    pb = sum(c * r2 ** k for k, c in enumerate(cb))
    if a is None:
        a = np.where(outside, (1.0 - m) / (1.0 + m), np.exp(pa))
        b = np.where(outside, (1.0 + m) ** 2, np.exp(pb))
    da_out = schw.mass / (rho_safe ** 2 * (1.0 + m) ** 2)
    db_out = -schw.mass * (1.0 + m) / rho_safe ** 2
    dpa = sum(2 * k * c * r2 ** (k - 1) for k, c in enumerate(ca) if k)
    dpb = sum(2 * k * c * r2 ** (k - 1) for k, c in enumerate(cb) if k)
    return (a, b, np.where(outside, da_out / rho_safe, a * dpa),
            np.where(outside, db_out / rho_safe, b * dpb))


def _same_bits(got, expected):
    assert type(got) is type(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# M = 1e3 puts every node of the L = 20 box in the core; M = 0 and M < 0
# take the default core radius 1
CHARTS = [SchwarzschildIsotropic(m) for m in (0.0, -0.3, 0.5, 1.0, 2.0, 1e3)]
CHARTS.append(SchwarzschildIsotropic(0.5, core_radius=0.8))


@pytest.mark.parametrize("n", [9, 17, 33])
@pytest.mark.parametrize("schw", CHARTS, ids=repr)
def test_branch_split_is_bit_identical_on_the_grid(schw, n):
    rho = Grid4(20.0, n).radius("spatial")
    a, b = schw.profiles(rho)
    got = (a, b) + schw.radial_ratios(rho, a, b)
    expected = _split_by_where(schw, rho)
    core = rho < schw.core_radius
    assert core.any() and (schw.mass < 1e3 or core.all())
    for g, e in zip(got, expected):
        _same_bits(g, e)


@pytest.mark.parametrize("schw", CHARTS, ids=repr)
def test_branch_split_is_bit_identical_through_the_junction(schw):
    rc = schw.core_radius
    junction = [np.nextafter(rc, 0.0), rc, np.nextafter(rc, np.inf)]
    for rho in (np.linspace(0.0, 2.0 * rc, 257),
                np.array(junction + [rc * (1 - 1e-9), rc * (1 + 1e-9)]),
                np.linspace(rc, 3.0 * rc, 33),          # no core node
                np.linspace(0.0, 0.999 * rc, 33)):      # every node core
        a, b = schw.profiles(rho)
        got = (a, b) + schw.radial_ratios(rho, a, b)
        for g, e in zip(got, _split_by_where(schw, rho)):
            _same_bits(g, e)


@pytest.mark.parametrize("rho", [1.0, 3.0])
def test_scalar_radii_keep_their_types_and_bits(rho):
    # a 0-d radius inside (1.0) and outside (3.0) the core of M = 1
    schw = SchwarzschildIsotropic(1.0)
    a, b = schw.profiles(rho)
    expected = _split_by_where(schw, rho)
    for g, e in zip((a, b) + schw.radial_ratios(rho, a, b), expected):
        assert isinstance(g, np.ndarray) and g.shape == ()
        _same_bits(g, e)
    # ratios of given 0-d profiles, as the connection passes them
    for g, e in zip(schw.radial_ratios(np.float64(rho), a, b),
                    _split_by_where(schw, rho, a, b)[2:]):
        _same_bits(g, e)
