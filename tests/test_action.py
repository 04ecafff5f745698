"""Action values, field-equation residuals, and the equivariant coupling."""

import numpy as np
import pytest

from pcgrav import fields as F
from pcgrav.action import (EquivariantTestForm, action_pc,
                           einstein_residual, equivariant_action,
                           equivariant_coupling, extra_eom_term,
                           standard_test_form, torsion_residual)
from pcgrav.geometry import SchwarzschildIsotropic, minkowski_tetrad
from pcgrav.grid import Grid4
from pcgrav.symmetry import CutoffFunction, PoincareElement


def flat_setup(n=9, half_width=2.0):
    grid = Grid4(half_width, n)
    return minkowski_tetrad(grid), F.zeros(grid, 1, 2)


def test_flat_action_and_residuals_vanish_exactly():
    e, om = flat_setup()
    assert action_pc(e, om, 0.0) == 0.0
    _, tn = torsion_residual(e, om)
    _, en = einstein_residual(e, om, 0.0)
    assert tn == 0.0 and en == 0.0


def test_flat_action_with_cosmological_constant_is_lambda_volume():
    e, om = flat_setup()
    assert action_pc(e, om, 0.7) == pytest.approx(0.7 * 4.0 ** 4, rel=1e-12)


def test_flat_einstein_residual_norm_with_lambda_is_grid_independent():
    norms = []
    for n in (9, 13):
        e, om = flat_setup(n=n)
        _, en = einstein_residual(e, om, 1.0)
        norms.append(en)
    assert norms[0] == pytest.approx(1.0, abs=1e-12)
    assert norms[0] == norms[1]


def test_einstein_residual_linear_in_lambda():
    grid = Grid4(3.0, 9)
    schw = SchwarzschildIsotropic(0.4, core_radius=0.5)
    e, om = schw.tetrad(grid), schw.connection(grid)
    fields = {}
    for lam in (0.0, 0.3, 1.1, 1.4):
        fields[lam], _ = einstein_residual(e, om, lam)
    combo = (fields[0.3] + fields[1.1] - fields[1.4] - fields[0.0])
    assert combo.max_abs() <= 1e-12 * max(1.0, fields[1.4].max_abs())


def test_non_levi_civita_connection_has_nondecaying_torsion():
    vec = np.zeros(6)
    vec[0] = 0.3
    norms = []
    for n in (9, 13):
        grid = Grid4(2.0, n)
        e = minkowski_tetrad(grid)
        data = np.zeros((4, 6) + grid.shape)
        data[2, :] = vec[:, None, None, None, None]
        om = F.FormField(grid, 1, 2, data)
        _, tn = torsion_residual(e, om)
        norms.append(tn)
    assert norms[0] == pytest.approx(norms[1], rel=1e-12)
    assert norms[0] > 0.1


def test_equivariant_action_reduces_to_base_when_residual_vanishes():
    grid = Grid4(4.0, 9, inner_radius=1.0)
    e = minkowski_tetrad(grid)
    om = F.zeros(grid, 1, 2)
    cutoff = CutoffFunction(1.0, 2.5)
    form = standard_test_form(grid, cutoff)
    for name in ("P1", "K2", "L3"):
        gen = PoincareElement.from_name(name)
        assert equivariant_action(e, om, form, gen, 0.0) == \
            action_pc(e, om, 0.0)


def test_equivariant_action_reduces_to_base_for_zero_test_form():
    grid = Grid4(4.0, 9, inner_radius=1.0, radius_mode="spatial")
    schw = SchwarzschildIsotropic(0.4, core_radius=0.5)
    e, om = schw.tetrad(grid), schw.connection(grid)
    cutoff = CutoffFunction(1.0, 2.5)
    form = EquivariantTestForm(F.zeros(grid, 2, 0), cutoff)
    gen = PoincareElement.from_name("K1")
    assert equivariant_action(e, om, form, gen, 0.0) == action_pc(e, om, 0.0)


def test_equivariant_action_splits_into_base_plus_coupling():
    grid = Grid4(8.0, 13, inner_radius=2.0, radius_mode="spatial")
    schw = SchwarzschildIsotropic(0.5, core_radius=0.8)
    e, om = schw.tetrad(grid), schw.connection(grid)
    cutoff = CutoffFunction(2.0, 4.0)
    form = standard_test_form(grid, cutoff)
    gen = PoincareElement.from_name("K2")
    total = equivariant_action(e, om, form, gen, 0.0)
    base = action_pc(e, om, 0.0)
    coupling = equivariant_coupling(e, form, gen)
    assert coupling != 0.0
    assert total == pytest.approx(base + coupling, abs=1e-12 * abs(total))


def test_equivariant_coupling_for_boost_is_stable_regression():
    # frozen after first computation; value must be nonzero and stable to
    # three digits between the two finest grids
    values = {}
    for n in (25, 33):
        grid = Grid4(20.0, n, inner_radius=4.0, radius_mode="spatial")
        schw = SchwarzschildIsotropic(1.0)
        e = schw.tetrad(grid)
        cutoff = CutoffFunction(4.0, 8.0)
        form = standard_test_form(grid, cutoff)
        values[n] = equivariant_coupling(e, form,
                                         PoincareElement.from_name("K1"))
    assert values[33] != 0.0
    assert values[25] == pytest.approx(values[33], rel=2e-3)
    assert values[33] == pytest.approx(2847.976, rel=1e-3)


def test_extra_eom_term_vanishes_on_flat_space():
    grid = Grid4(4.0, 9, inner_radius=1.0)
    e = minkowski_tetrad(grid)
    cutoff = CutoffFunction(1.0, 2.5)
    form = standard_test_form(grid, cutoff)
    for name in ("P1", "K2", "L3"):
        term, norm = extra_eom_term(e, form, PoincareElement.from_name(name))
        assert norm <= 1e-14


def test_extra_eom_term_bound_by_symmetry_residual():
    from pcgrav.symmetry import symmetry_residual
    grid = Grid4(8.0, 13, inner_radius=2.0, radius_mode="spatial")
    schw = SchwarzschildIsotropic(0.5, core_radius=0.8)
    e = schw.tetrad(grid)
    cutoff = CutoffFunction(2.0, 4.0)
    form = standard_test_form(grid, cutoff)
    gen = PoincareElement.from_name("K1")
    term, norm = extra_eom_term(e, form, gen)
    residual_norm = symmetry_residual(e, gen).region_norm()
    alpha_max = form.alpha.max_abs()
    plane_max = np.abs(gen.rotation_pair_components).max()
    assert norm > 0.0
    assert norm <= 24.0 * alpha_max * plane_max * residual_norm


def test_translation_coupling_vanishes_and_its_term_borrows_the_plane():
    grid = Grid4(8.0, 13, inner_radius=2.0, radius_mode="spatial")
    schw = SchwarzschildIsotropic(0.5, core_radius=0.8)
    e = schw.tetrad(grid)
    form = standard_test_form(grid, CutoffFunction(2.0, 4.0))
    p1 = PoincareElement.from_name("P1")
    # literal coupling: zero Lorentz part
    assert equivariant_coupling(e, form, p1) == 0.0
    _, norm = extra_eom_term(e, form, p1)
    assert norm > 1e-4  # reference plane keeps the diagnostic informative
    l3 = PoincareElement.from_name("L3")
    assert np.array_equal(form.factor(p1).data, form.factor(l3).data)


def test_test_form_support_is_enforced():
    grid = Grid4(4.0, 9, inner_radius=1.0)
    alpha = F.scalar_form(grid, 2, {(0, 1): np.ones(grid.shape)})
    with pytest.raises(ValueError, match="vanish"):
        EquivariantTestForm(alpha, CutoffFunction(1.0, 2.5))


def test_test_form_degree_is_enforced():
    grid = Grid4(4.0, 9, inner_radius=1.0)
    with pytest.raises(ValueError, match="2-form"):
        EquivariantTestForm(F.zeros(grid, 1, 0), CutoffFunction(1.0, 2.5))


def test_on_shell_action_restricted_to_region_is_small():
    # where both residuals are below tau, the Lambda = 0 action restricted
    # to the region is bounded by 4 tau vol(U)
    grid = Grid4(20.0, 17, inner_radius=4.0, radius_mode="spatial")
    schw = SchwarzschildIsotropic(1.0)
    e, om = schw.tetrad(grid), schw.connection(grid)
    _, tn = torsion_residual(e, om)
    _, en = einstein_residual(e, om, 0.0)
    tau = max(tn, en)
    region = grid.region_mask() & grid.interior_mask()
    integrand = F.trace4(0.5 * F.wedge(F.wedge(e, e), F.curvature(om)))
    restricted = F.integrate(integrand, region=region)
    ones = F.FormField(grid, 4, 0, np.ones((1, 1) + grid.shape))
    volume = F.integrate(ones, region=region)
    assert abs(restricted) <= 4.0 * tau * volume


def test_degenerate_tetrad_rejected_by_action():
    grid = Grid4(2.0, 9)
    data = np.zeros((4, 4) + grid.shape)
    with pytest.raises(F.DegenerateTetradError):
        action_pc(F.FormField(grid, 1, 1, data), F.zeros(grid, 1, 2), 0.0)
