"""Surface-integral mass observables against closed-form oracles."""

import numpy as np
import pytest

from pcgrav.fields import MetricField
from pcgrav.geometry import SchwarzschildIsotropic, minkowski_metric
from pcgrav.grid import Grid4
from pcgrav.mass import (MassDomainError, SphereQuadrature, adm_energy,
                         extrapolate_in_radius, komar_mass, positivity_check)

RADII = [8.0, 12.0, 16.0]


def big_grid(n=33):
    return Grid4(20.0, n, inner_radius=4.0)


def test_quadrature_weights_sum_to_sphere_area():
    quad = SphereQuadrature(3.0)
    assert quad.weights.sum() == pytest.approx(4.0 * np.pi * 9.0, rel=1e-12)


def test_quadrature_integrates_low_harmonics_exactly():
    quad = SphereQuadrature(1.0)
    n, _, _, w = quad.nodes_and_weights()
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
