"""Poincare generators as grid vector fields, cutoff, and residuals.

A Poincare element is a pair (T, R) with T a translation 4-vector and R an
eta-antisymmetric matrix; its affine vector field is
``xi^mu(x) = T^mu + R^mu_nu x^nu`` (so the generator-to-field map is an
antihomomorphism: ``xi_[X,Y] = -[xi_X, xi_Y]``).

The symmetry residual of a tetrad is

    X . e  :=  L_xi e  -  rho_V(R) e,

the Lie derivative of the V-valued 1-form minus the internal Lorentz
compensation.  Where it vanishes, xi is Killing for the tetrad metric,
since internal so(3,1) rotations preserve eta.  Residual norms and the
cutoff's profile on a grid read the excised ball and radius mode the grid
carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebras import poincare_coefficients
from .conventions import ETA, LAMBDA2, lorentz_generator
from .fields import FormField, MetricField, stack_rows
from .grid import FACE_LAYERS, Grid4, Window, diff_axis, restrict


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


def poincare_generators():
    return tuple(map(PoincareElement.from_name, POINCARE_GENERATOR_NAMES))


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

    def on_grid(self, where) -> np.ndarray:
        """The profile of the grid's radius at every node of ``where``, the
        grid or a window of it; cached per grid, read-only."""
        grid = where.grid if isinstance(where, Window) else where
        return restrict(_profile_on_grid(self, grid), where)


@lru_cache(maxsize=8)
def _profile_on_grid(cutoff: CutoffFunction, grid: Grid4) -> np.ndarray:
    ups = cutoff.profile(grid.radius(grid.radius_mode))
    ups.setflags(write=False)
    return ups


# ---------------------------------------------------------------------------
# Vector fields and residuals
# ---------------------------------------------------------------------------

def _affine_components(x: PoincareElement, grid: Grid4) -> list:
    """xi^mu = T^mu + R^mu_nu x^nu, each with extent 1 on the axes it is
    constant along."""
    comps = []
    for mu in range(4):
        comp = np.full((1, 1, 1, 1), x.translation[mu])
        for nu in range(4):
            if x.rotation[mu, nu]:
                comp = comp + x.rotation[mu, nu] * grid.coordinate(nu)
        comps.append(comp)
    return comps


def generated_vector_field(x: PoincareElement, grid: Grid4) -> np.ndarray:
    """xi[mu] = T^mu + R^mu_nu x^nu on the grid, components leading.

    A read-only broadcast view of shape (4,) + grid.shape.
    """
    comps = _affine_components(x, grid)
    shape = np.broadcast_shapes(*(c.shape for c in comps))
    stacked = np.stack([np.broadcast_to(c, shape) for c in comps])
    return np.broadcast_to(stacked, (4,) + grid.shape)


def _moved_axes(x: PoincareElement):
    """Axes lambda along which xi^lambda = T^lambda + R^lambda_nu x^nu
    is not identically zero."""
    return [lam for lam in range(4)
            if x.translation[lam] or np.any(x.rotation[lam])]


def axis_derivatives(field, generators) -> dict:
    """Stencil derivatives of the live components of ``field`` (a
    FormField or MetricField), stacked as its ``stack``, by axis lambda,
    along every axis that one of ``generators`` moves: one set serves
    them all.  Along a grid axis of extent 1 they keep that extent
    (``diff_axis`` gives exact zeros, NaN where a sample is not finite),
    so they cost one slice."""
    axes = sorted({lam for x in generators for lam in _moved_axes(x)})
    return {lam: diff_axis(field.stack, 1 + lam, field.grid.spacing)
            for lam in axes}


def _lie_transport(field, x: PoincareElement, derivatives, terms):
    """Stack and live set of xi^lambda d_lambda ``field`` plus the affine
    ``terms``, (target, sign, coefficient, source) component tuples, each
    sign * coefficient * source.

    Grid stencils differentiate the live components, read from
    ``derivatives`` (built here when None); the affine xi's Jacobian terms
    are its exact rotation matrix, which the callers' ``terms`` carry.
    Along an axis where the data has extent 1 the derivative is exact
    zeros (NaN at a non-finite sample), which xi^lambda would only
    rescale: that term is the derivative itself, so it keeps the extent of
    the data.  Each component gets its transport terms in axis order, then
    its ``terms`` with a live source in their order, and is live if it
    gets any; the first is stored, the bits of adding it to 0.0 but for
    the sign of an exact zero.
    """
    if derivatives is None:
        derivatives = axis_derivatives(field, (x,))
    stack, rows = field.stack, stack_rows(field.live)
    xi, axes = _affine_components(x, field.grid), _moved_axes(x)
    # each written component's terms: (sign, factor or None, samples)
    steps = {c: [(1, xi[lam] if stack.shape[1 + lam] > 1 else None,
                  derivatives[lam][k]) for lam in axes]
             for k, c in enumerate(zip(*np.nonzero(field.live))) if axes}
    for target, sign, value, source in terms:
        if rows[source] >= 0:
            steps.setdefault(target, []).append(
                (sign, value, stack[rows[source]]))
    live = np.zeros(field.live.shape, dtype=bool)
    for c in steps:
        live[c] = True
    # the result has extent N on an axis only where data or a term does
    out = np.empty((len(steps),) + np.broadcast_shapes(stack.shape[1:], *(
        xi[lam].shape for lam in axes if stack.shape[1 + lam] > 1)))
    for dst, c in zip(out, sorted(steps)):
        for n, (sign, factor, samples) in enumerate(steps[c]):
            # xi^lambda = 0 (a boost's t = 0) times an inf derivative: NaN
            with np.errstate(invalid="ignore"):
                term = samples if factor is None else factor * samples
            if n == 0:
                (np.positive if sign > 0 else np.negative)(term, out=dst)
            else:
                (np.add if sign > 0 else np.subtract)(dst, term, out=dst)
    return out, live


def t_windows(data: np.ndarray, x: PoincareElement, grid: Grid4) -> list:
    """Where to evaluate the residuals of x on node samples ``data``: the
    grid, or interior one-slice windows of it.

    The windows are for a residual that depends on t while ``data`` does
    not: ``data`` has extent 1 on t, and x moves it along an axis lambda
    where it varies with xi^lambda depending on t (the boosts' t d_i).
    That residual, a dense N^4 array of each component, is then never
    allocated.  Slices within ``FACE_LAYERS`` of a t face lie outside every
    norm region, so they get no window.

    Three windows serve when one such lambda carries all the t dependence,
    its xi^lambda depends on t alone, and the grid's region mask has
    extent 1 on t (radius mode "spatial").  Each residual component at a
    node is then a chain of round-to-nearest operations on
    fl(xi^lambda(t) D) and t-independent terms, monotone in t, so |.|
    peaks at an outermost interior slice; a NaN there is kept by the max.
    The one NaN in between, 0 * inf where xi^lambda vanishes (t = 0 for a
    boost), gets the third window.  A product with a factor built from the
    grid's radius, as the mask is (the coupling factor of
    ``standard_test_form``), is affine in t before rounding; the monotone
    argument does not cover its sums of products whose t slopes differ in
    sign, so those norms are pinned against every slice by test, not
    proven.  In "4d" mode the mask and the cutoff depend on t: every
    interior slice gets its window.
    """
    xi = _affine_components(x, grid)
    moving = [lam for lam in _moved_axes(x)
              if xi[lam].shape[0] > 1 and data.shape[-4 + lam] > 1]
    if data.shape[-4] > 1 or not moving:
        return [grid]
    slices = range(FACE_LAYERS, grid.points - FACE_LAYERS)
    if (len(moving) == 1 and xi[moving[0]].size == grid.points
            and grid.region_mask().shape[0] == 1):
        vanish = np.flatnonzero(xi[moving[0]] == 0.0)
        slices = sorted({slices[0], slices[-1],
                         *set(slices).intersection(vanish.tolist())})
    return [grid.window(t) for t in slices]


def _entries(matrix: np.ndarray):
    """(row, column, value) of the nonzero entries, row-major."""
    return [(i, j, matrix[i, j]) for i, j in zip(*np.nonzero(matrix))]


def _row_terms(x: PoincareElement, columns: int) -> list:
    """The terms a^I_nu d_mu xi^nu = a^I_nu R^nu_mu of the Lie derivative
    of a 1-form a with ``columns`` internal components, for
    :func:`_lie_transport`."""
    return [((mu, i), 1, r, (nu, i))
            for nu, mu, r in _entries(x.rotation) for i in range(columns)]


def symmetry_residual(e: FormField, x: PoincareElement,
                      derivatives: dict = None) -> FormField:
    """X . e = L_xi e - rho_V(R) e; zero iff xi acts isometrically on g_e.

    ``derivatives`` is ``axis_derivatives(e, generators)``,
    shared by the generators of a sweep; it is built here when not given.
    Its live set is the components the transport and rotation terms write.
    """
    if e.degree != 1 or e.internal != 1:
        raise ValueError("symmetry residual is defined for V-valued 1-forms")
    internal = [((mu, a), -1, r, (mu, b))
                for a, b, r in _entries(x.rotation) for mu in range(4)]
    return e._with(*_lie_transport(e, x, derivatives,
                                  _row_terms(x, 4) + internal))


def lie_derivative_metric(g: MetricField, x: PoincareElement,
                          derivatives: dict = None) -> MetricField:
    """(L_xi g)_{mu nu}, live on the components the transport and rotation
    terms write.  ``derivatives`` is ``axis_derivatives(g, generators)``,
    shared by the generators of a sweep; it is built here when not
    given."""
    entries = _entries(x.rotation)
    stack, live = _lie_transport(g, x, derivatives, _row_terms(x, 4) + [
        ((mu, nu), 1, value, (mu, lam))
        for lam, nu, value in entries for mu in range(4)])
    return MetricField(g.grid, stack=stack, _live=live)
