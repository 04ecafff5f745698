"""First-order tetrad action, field-equation residuals, equivariant term.

The action evaluated on grid fields is

    S = integral Tr[ 1/2 e^e^F  +  (Lambda/24) e^e^e^e ],

with F the curvature of the independent so(3,1) connection.  Its two
field equations are evaluated pointwise as residual forms:

    torsion:   d_omega e                    (V-valued 2-form)
    einstein:  e^F + (Lambda/6) e^e^e       (Lambda^3 V-valued 3-form)

The equivariant extension adds a cutoff-localized coupling between the
symmetry residual X.e of a chosen Poincare element and a test 2-form
supported outside the excluded ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (FormField, check_nondegenerate, cov_d, curvature,
                     integrate, trace4, wedge, zeros)
from .grid import Grid4
from .symmetry import CutoffFunction, PoincareElement, symmetry_residual


@dataclass(frozen=True)
class PcConfig:
    cosmological_constant: float
    grid: Grid4
    radius_mode: str = "4d"

    def region_kwargs(self):
        return {"r": self.grid.inner_radius, "mode": self.radius_mode}


@dataclass(frozen=True)
class EquivariantTestForm:
    """Scalar test 2-form supported outside the ball, with its generator.

    The support condition is exact: alpha must vanish identically on the
    closed excluded ball (multiply anything by the cutoff to arrange it).
    """

    alpha: FormField
    generator: PoincareElement

    def __post_init__(self):
        if self.alpha.degree != 2 or self.alpha.internal != 0:
            raise ValueError("test form must be a scalar-valued 2-form")

    def check_support(self, r: float, mode: str = "4d") -> None:
        outside = self.alpha.grid.region_mask(r, mode)
        # alpha and the mask broadcast against each other
        if np.any((self.alpha.data != 0.0) & ~outside):
            raise ValueError("test form must vanish on the excluded ball")


def action_pc(e: FormField, omega: FormField, cfg: PcConfig) -> float:
    """S = integral Tr[ e^e^F/2 + (Lambda/24) (e^e)^(e^e) ] over the box."""
    check_nondegenerate(e)
    ee = wedge(e, e)
    integrand = 0.5 * wedge(ee, curvature(omega))
    lam = cfg.cosmological_constant
    if lam != 0.0:
        integrand = integrand + (lam / 24.0) * wedge(ee, ee)
    return integrate(trace4(integrand))


def torsion_residual(e: FormField, omega: FormField, cfg: PcConfig):
    """d_omega e and its max-norm outside the ball (2 box layers dropped)."""
    residual = cov_d(omega, e)
    return residual, residual.region_norm(**cfg.region_kwargs())


def einstein_residual(e: FormField, omega: FormField, cfg: PcConfig):
    """e^F + (Lambda/6) e^e^e and its max-norm outside the ball."""
    residual = wedge(e, curvature(omega))
    lam = cfg.cosmological_constant
    if lam != 0.0:
        residual = residual + (lam / 6.0) * wedge(wedge(e, e), e)
    return residual, residual.region_norm(**cfg.region_kwargs())


# a pure translation has no Lorentz part, so by default the coupling
# borrows this fixed rotation plane to keep tracking X.e
REFERENCE_PLANE = PoincareElement.from_name("L3").rotation_pair_components


def _internal_plane(x: PoincareElement, strict: bool) -> np.ndarray:
    """Lambda^2 coefficients entering the equivariant coupling for x."""
    comps = x.rotation_pair_components
    if strict or np.any(comps != 0.0):
        return comps
    return REFERENCE_PLANE


def _alpha_times_plane(t: EquivariantTestForm, cutoff: CutoffFunction,
                       cfg: PcConfig, plane: np.ndarray) -> FormField:
    """(Upsilon alpha) tensor X_R as a Lambda^2-valued 2-form."""
    grid = t.alpha.grid
    ups = cutoff.on_grid(grid, cfg.radius_mode)
    scaled = t.alpha.data[:, 0] * ups          # (6,) + grid
    data = scaled[:, None] * plane[None, :, None, None, None, None]
    return FormField(grid, 2, 2, data)


def coupling_factor(t: EquivariantTestForm, cutoff: CutoffFunction,
                    cfg: PcConfig, strict: bool = False):
    """The factor (Upsilon alpha) (x) X_R that ``extra_eom_term`` wedges
    X.e with, or None where X_R is zero; checks alpha's support first."""
    t.check_support(cfg.grid.inner_radius, cfg.radius_mode)
    plane = _internal_plane(t.generator, strict)
    if not np.any(plane != 0.0):
        return None
    return _alpha_times_plane(t, cutoff, cfg, plane)


def extra_eom_term(e: FormField, t: EquivariantTestForm,
                   cutoff: CutoffFunction, cfg: PcConfig,
                   strict: bool = False, residual: FormField = None):
    """(X.e) ^ (Upsilon alpha (x) X_R), with max-norm outside the ball.

    ``strict=True`` always uses the generator's own Lorentz part (giving the
    zero field for pure translations); by default a pure translation falls
    back to ``REFERENCE_PLANE`` (L3) so the diagnostic tracks X.e for every
    generator.  Pass ``residual`` to reuse an already computed X.e.
    """
    factor = coupling_factor(t, cutoff, cfg, strict)
    if residual is None:
        residual = symmetry_residual(e, t.generator)
    if factor is None:
        term = zeros(e.grid, 3, 3)
    else:
        term = wedge(residual, factor)
    return term, term.region_norm(**cfg.region_kwargs())


def equivariant_coupling(e: FormField, t: EquivariantTestForm,
                         cutoff: CutoffFunction, cfg: PcConfig) -> float:
    """1/2 integral Tr[(X.e)^(X.e)^(Upsilon alpha (x) X_R)].

    Uses the generator's own Lorentz part (no reference substitution), so
    the coupling vanishes identically when X.e = 0, alpha = 0, or the
    generator is a pure translation.
    """
    t.check_support(cfg.grid.inner_radius, cfg.radius_mode)
    plane = _internal_plane(t.generator, strict=True)
    if not np.any(plane != 0.0):
        return 0.0
    residual = symmetry_residual(e, t.generator)
    coupling = wedge(wedge(residual, residual),
                     _alpha_times_plane(t, cutoff, cfg, plane))
    return 0.5 * integrate(trace4(coupling))


def equivariant_action(e: FormField, omega: FormField,
                       t: EquivariantTestForm, cutoff: CutoffFunction,
                       cfg: PcConfig) -> float:
    """Base action plus the cutoff-localized equivariant coupling."""
    return (action_pc(e, omega, cfg)
            + equivariant_coupling(e, t, cutoff, cfg))
