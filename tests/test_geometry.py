"""Reference geometry: blended isotropic chart and its curvature."""

import numpy as np
import pytest

from pcgrav import fields as F
from pcgrav.conventions import ETA_DIAG, LAMBDA_BASES
from pcgrav.geometry import SchwarzschildIsotropic, minkowski_tetrad
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