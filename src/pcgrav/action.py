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

from dataclasses import dataclass, field

import numpy as np

from .conventions import LAMBDA_BASES
from .fields import (FormField, check_nondegenerate, cov_d, curvature,
                     integrate, scalar_form, trace4, wedge)
from .grid import Grid4
from .symmetry import CutoffFunction, PoincareElement, symmetry_residual


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


# a pure translation has no Lorentz part, so the coupling factor borrows
# this fixed rotation plane to keep tracking X.e
REFERENCE_PLANE = PoincareElement.from_name("L3").rotation_pair_components


@dataclass(frozen=True)
class EquivariantTestForm:
    """Scalar test 2-form alpha supported outside the ball, localized by
    the cutoff Upsilon.

    The support condition is exact: alpha must vanish identically on the
    closed ball its grid excises (multiply anything by the cutoff to
    arrange it).  It is checked, and Upsilon alpha built, once per form.
    """

    alpha: FormField
    cutoff: CutoffFunction
    weighted: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.alpha.degree != 2 or self.alpha.internal != 0:
            raise ValueError("test form must be a scalar-valued 2-form")
        grid = self.alpha.grid
        # alpha and the mask broadcast against each other
        if np.any((self.alpha.data != 0.0) & ~grid.region_mask()):
            raise ValueError("test form must vanish on the excluded ball")
        object.__setattr__(self, "weighted",        # (6,) + grid
                           self.alpha.data[:, 0] * self.cutoff.on_grid(grid))

    def factor(self, generator: PoincareElement) -> FormField:
        """The factor (Upsilon alpha) (x) X_R, a Lambda^2-valued 2-form,
        that X.e is wedged with; a pure translation has no X_R and borrows
        ``REFERENCE_PLANE``."""
        plane = generator.rotation_pair_components
        if not np.any(plane != 0.0):
            plane = REFERENCE_PLANE
        data = self.weighted[:, None] * plane[None, :, None, None, None, None]
        return FormField(self.alpha.grid, 2, 2, data)


def standard_test_form(grid: Grid4,
                       cutoff: CutoffFunction) -> EquivariantTestForm:
    """Cutoff profile on every coordinate 2-plane: a maximally generic
    test form whose support is exactly the cutoff's."""
    ups = cutoff.on_grid(grid)
    alpha = scalar_form(grid, 2, {st: ups for st in LAMBDA_BASES[2]})
    return EquivariantTestForm(alpha, cutoff)


def extra_eom_term(e: FormField, form: EquivariantTestForm,
                   generator: PoincareElement):
    """(X.e) ^ (Upsilon alpha (x) X_R), with max-norm outside the ball; a
    pure translation's uses ``REFERENCE_PLANE``, so the diagnostic tracks
    X.e for every generator."""
    term = wedge(symmetry_residual(e, generator), form.factor(generator))
    return term, term.region_norm()


def equivariant_coupling(e: FormField, form: EquivariantTestForm,
                         generator: PoincareElement) -> float:
    """1/2 integral Tr[(X.e)^(X.e)^(Upsilon alpha (x) X_R)].

    Uses the generator's own Lorentz part (no reference plane), so the
    coupling vanishes identically when X.e = 0, alpha = 0, or the
    generator is a pure translation.
    """
    if not np.any(generator.rotation_pair_components != 0.0):
        return 0.0
    residual = symmetry_residual(e, generator)
    return 0.5 * integrate(trace4(wedge(wedge(residual, residual),
                                        form.factor(generator))))


def equivariant_action(e: FormField, omega: FormField,
                       form: EquivariantTestForm, generator: PoincareElement,
                       lam: float) -> float:
    """Base action plus the cutoff-localized equivariant coupling."""
    return action_pc(e, omega, lam) + equivariant_coupling(e, form, generator)
