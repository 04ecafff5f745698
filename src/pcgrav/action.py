"""First-order tetrad action, field-equation residuals, equivariant term.

The action evaluated on grid fields is

    S = integral Tr[ 1/2 e^e^F  +  (Lambda/24) e^e^e^e ],

with F the curvature of the independent so(3,1) connection.  Its two
field equations are evaluated pointwise as residual forms:

    torsion:   d_omega e                    (V-valued 2-form)
    einstein:  e^F + (Lambda/6) e^e^e       (Lambda^3 V-valued 3-form)

with Lambda a float argument.  Residual norms run outside the ball the
fields' grid excises.  The equivariant extension adds a cutoff-localized
coupling between the symmetry residual X.e of a chosen Poincare element
and a test 2-form supported outside that ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (FormField, check_nondegenerate, cov_d, curvature,
                     integrate, trace4, wedge, zeros)
from .symmetry import CutoffFunction, PoincareElement, symmetry_residual


@dataclass(frozen=True)
class EquivariantTestForm:
    """Scalar test 2-form supported outside the ball, with its generator.

    The support condition is exact: alpha must vanish identically on the
    closed ball its grid excises (multiply anything by the cutoff to
    arrange it).
    """

    alpha: FormField
    generator: PoincareElement

    def __post_init__(self):
        if self.alpha.degree != 2 or self.alpha.internal != 0:
            raise ValueError("test form must be a scalar-valued 2-form")
        outside = self.alpha.grid.region_mask()
        # alpha and the mask broadcast against each other
        if np.any((self.alpha.data != 0.0) & ~outside):
            raise ValueError("test form must vanish on the excluded ball")


def action_pc(e: FormField, omega: FormField, lam: float) -> float:
    """S = integral Tr[ e^e^F/2 + (Lambda/24) (e^e)^(e^e) ] over the box,
    with ``lam`` the cosmological constant Lambda."""
    check_nondegenerate(e)
    ee = wedge(e, e)
    integrand = 0.5 * wedge(ee, curvature(omega))
    if lam != 0.0:
        integrand = integrand + (lam / 24.0) * wedge(ee, ee)
    return integrate(trace4(integrand))


def torsion_residual(e: FormField, omega: FormField):
    """d_omega e and its max-norm outside the ball (2 box layers dropped)."""
    residual = cov_d(omega, e)
    return residual, residual.region_norm()


def einstein_residual(e: FormField, omega: FormField, lam: float):
    """e^F + (Lambda/6) e^e^e and its max-norm outside the ball."""
    residual = wedge(e, curvature(omega))
    if lam != 0.0:
        residual = residual + (lam / 6.0) * wedge(wedge(e, e), e)
    return residual, residual.region_norm()


# a pure translation has no Lorentz part, so by default the coupling
# borrows this fixed rotation plane to keep tracking X.e
REFERENCE_PLANE = PoincareElement.from_name("L3").rotation_pair_components


def coupling_factor(t: EquivariantTestForm, cutoff: CutoffFunction,
                    strict: bool = False):
    """The factor (Upsilon alpha) (x) X_R, a Lambda^2-valued 2-form, that
    X.e is wedged with; None where X_R is zero.

    A pure translation has no X_R: unless ``strict``, it borrows
    ``REFERENCE_PLANE``.
    """
    plane = t.generator.rotation_pair_components
    if not np.any(plane != 0.0):
        if strict:
            return None
        plane = REFERENCE_PLANE
    grid = t.alpha.grid
    scaled = t.alpha.data[:, 0] * cutoff.on_grid(grid)     # (6,) + grid
    data = scaled[:, None] * plane[None, :, None, None, None, None]
    return FormField(grid, 2, 2, data)


def extra_eom_term(e: FormField, t: EquivariantTestForm,
                   cutoff: CutoffFunction, strict: bool = False):
    """(X.e) ^ (Upsilon alpha (x) X_R), with max-norm outside the ball.

    ``strict=True`` always uses the generator's own Lorentz part (giving the
    zero field for pure translations); by default a pure translation falls
    back to ``REFERENCE_PLANE`` (L3) so the diagnostic tracks X.e for every
    generator.
    """
    factor = coupling_factor(t, cutoff, strict)
    if factor is None:
        term = zeros(e.grid, 3, 3)
    else:
        term = wedge(symmetry_residual(e, t.generator), factor)
    return term, term.region_norm()


def equivariant_coupling(e: FormField, t: EquivariantTestForm,
                         cutoff: CutoffFunction) -> float:
    """1/2 integral Tr[(X.e)^(X.e)^(Upsilon alpha (x) X_R)].

    Uses the generator's own Lorentz part (no reference substitution), so
    the coupling vanishes identically when X.e = 0, alpha = 0, or the
    generator is a pure translation.
    """
    factor = coupling_factor(t, cutoff, strict=True)
    if factor is None:
        return 0.0
    residual = symmetry_residual(e, t.generator)
    return 0.5 * integrate(trace4(wedge(wedge(residual, residual), factor)))


def equivariant_action(e: FormField, omega: FormField,
                       t: EquivariantTestForm, cutoff: CutoffFunction,
                       lam: float) -> float:
    """Base action plus the cutoff-localized equivariant coupling."""
    return action_pc(e, omega, lam) + equivariant_coupling(e, t, cutoff)
