"""Poincare generators as grid vector fields, cutoff, and residuals.

A Poincare element is a pair (T, R) with T a translation 4-vector and R an
eta-antisymmetric matrix; its affine vector field is
``xi^mu(x) = T^mu + R^mu_nu x^nu`` (so the generator-to-field map is an
antihomomorphism: ``xi_[X,Y] = -[xi_X, xi_Y]``).

The symmetry residual of a tetrad is

    X . e  :=  L_xi e  -  rho_V(R) e,

the Lie derivative of the V-valued 1-form minus the internal Lorentz
compensation.  Where it vanishes, xi is Killing for the tetrad metric,
since internal so(3,1) rotations preserve eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebras import closure_check, poincare_coefficients
from .conventions import ETA, LAMBDA2, lorentz_generator
from .fields import FormField, MetricField
from .grid import Grid4, diff_axis, region_max


@dataclass(frozen=True)
class PoincareElement:
    name: str
    translation: np.ndarray  # (4,)
    rotation: np.ndarray     # (4,4), R^mu_nu, eta-antisymmetric

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(4)
        r = np.asarray(self.rotation, dtype=float).reshape(4, 4)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "rotation", r)
        skew = r.T @ ETA + ETA @ r
        if np.any(skew != 0.0):
            raise ValueError(
                f"rotation part of {self.name!r} is not eta-antisymmetric")
        t.setflags(write=False)
        r.setflags(write=False)

    @classmethod
    def from_name(cls, name: str) -> "PoincareElement":
        return cls.from_coefficients(poincare_coefficients(name), name=name)

    @classmethod
    def from_coefficients(cls, coeffs, name=None) -> "PoincareElement":
        coeffs = [float(c) for c in coeffs]
        t = np.array(coeffs[:4])
        r = np.zeros((4, 4))
        for n, (a, b) in enumerate(LAMBDA2):
            if coeffs[4 + n]:
                r += coeffs[4 + n] * lorentz_generator(a, b)
        return cls(name or "custom", t, r)

    def coefficients(self):
        """Exact Poincare coefficient vector (translations then J pairs)."""
        return [Fraction(float(x)) for x in
                (*self.translation, *self.rotation_pair_components)]

    @property
    def rotation_pair_components(self) -> np.ndarray:
        """R expressed in the Lambda^2 basis (length 6)."""
        lowered = ETA.astype(float) @ self.rotation
        return np.array([ETA[a, a] * ETA[b, b] * lowered[a, b]
                         for a, b in LAMBDA2])


SPHERICAL_GENERATOR_NAMES = ("P0", "L1", "L2", "L3")
POINCARE_GENERATOR_NAMES = SPHERICAL_GENERATOR_NAMES + (
    "P1", "P2", "P3", "K1", "K2", "K3")


def poincare_generators(names=POINCARE_GENERATOR_NAMES):
    return tuple(PoincareElement.from_name(n) for n in names)


@dataclass(frozen=True)
class KillingSubalgebra:
    name: str
    generators: tuple

    def __post_init__(self):
        if self.generators and not closure_check(
                [g.coefficients() for g in self.generators]):
            raise ValueError(
                f"generators of {self.name!r} do not close under brackets")


def spherical_subalgebra() -> KillingSubalgebra:
    return KillingSubalgebra("static-spherical",
                             poincare_generators(SPHERICAL_GENERATOR_NAMES))


# ---------------------------------------------------------------------------
# Cutoff
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffFunction:
    """Quintic smoothstep between radii: 0 inside r, 1 outside R, C^2."""

    inner: float
    outer: float

    def __post_init__(self):
        if not self.outer > self.inner > 0:
            raise ValueError("cutoff needs R > r > 0 (outer > inner)")

    def profile(self, rho):
        s = np.clip((np.asarray(rho, float) - self.inner)
                    / (self.outer - self.inner), 0.0, 1.0)
        return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))

    def on_grid(self, grid: Grid4, mode: str = "4d") -> np.ndarray:
        return self.profile(grid.radius(mode))


def cutoff_eval(c: CutoffFunction, point, mode: str = "4d") -> float:
    x = np.asarray(point, dtype=float).reshape(4)
    sq = x ** 2 if mode == "4d" else x[1:] ** 2
    return float(c.profile(np.sqrt(sq.sum())))


# ---------------------------------------------------------------------------
# Vector fields and residuals
# ---------------------------------------------------------------------------

def generated_vector_field(x: PoincareElement, grid: Grid4) -> np.ndarray:
    """xi[mu] = T^mu + R^mu_nu x^nu on the grid, components leading."""
    out = np.empty((4,) + grid.shape)
    for mu in range(4):
        comp = np.full(grid.shape, x.translation[mu])
        for nu in range(4):
            if x.rotation[mu, nu]:
                comp = comp + x.rotation[mu, nu] * grid.coordinate(nu)
        out[mu] = comp
    return out


def _lie_transport(data: np.ndarray, x: PoincareElement,
                   grid: Grid4) -> np.ndarray:
    """xi^lambda d_lambda of every component: the transport part of L_xi.

    Grid stencils differentiate the components; callers add the Jacobian
    terms of the affine xi, which are its exact rotation matrix.
    """
    out = np.zeros_like(data)
    xi = generated_vector_field(x, grid)
    for lam in range(4):
        if np.any(xi[lam] != 0.0):
            out += xi[lam] * diff_axis(data, 2 + lam, grid.spacing)
    return out


def lie_derivative_one_form(field: FormField, x: PoincareElement) -> np.ndarray:
    """(L_xi a)^I_mu for a 1-form, internal indices untouched."""
    out = _lie_transport(field.data, x, field.grid)
    # + a^I_nu d_mu xi^nu with d_mu xi^nu = R^nu_mu
    out += np.einsum("na...,nm->ma...", field.data, x.rotation)
    return out


def symmetry_residual(e: FormField, x: PoincareElement) -> FormField:
    """X . e = L_xi e - rho_V(R) e; zero iff xi acts isometrically on g_e."""
    if e.degree != 1 or e.internal != 1:
        raise ValueError("symmetry residual is defined for V-valued 1-forms")
    data = lie_derivative_one_form(e, x)
    data -= np.einsum("ab,mb...->ma...", x.rotation, e.data)
    return FormField(e.grid, 1, 1, data)


def killing_residual(g: MetricField, x: PoincareElement,
                     r: float = None, mode: str = "4d"):
    """(L_xi g)_{mu nu} and its max-norm outside the excluded ball."""
    out = _lie_transport(g.data, x, g.grid)
    out += np.einsum("ln...,lm->mn...", g.data, x.rotation)
    out += np.einsum("ml...,ln->mn...", g.data, x.rotation)
    norm = region_max(out, g.grid, r, mode)
    return out, norm
