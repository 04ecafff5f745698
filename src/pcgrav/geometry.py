"""Reference geometries sampled on the grid.

``minkowski_tetrad`` is the identity coframe.  ``SchwarzschildIsotropic``
is the static spherically symmetric vacuum exterior in isotropic
coordinates,

    e^0 = A(rho) dt,   e^i = B(rho) dx^i,
    A = (1 - M/2rho)/(1 + M/2rho),   B = (1 + M/2rho)^2,

which is singular on the spatial axis rho -> 0.  Since grid stencils read
every node, the log-profiles ln A, ln B are continued inside a core radius
rho_c by even polynomials in rho (degree 8), matched to 4th order at the
junction.  The continued fields are smooth on the whole box, positive
(hence nondegenerate), still static and exactly spherically symmetric, and
*identical* to Schwarzschild for rho >= rho_c; the closed-form Levi-Civita
connection below is the connection of the continued tetrad everywhere, so
its covariant torsion vanishes identically in the continuum.

Both geometries are static, so their fields are stored with extent 1 on
the t axis of the grid (flat space: on every axis), and their diagonal
tetrads and metrics carry that live set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conventions import ETA_DIAG, PAIR_INDEX
from .fields import FormField, MetricField, stacked, tetrad_field, zeros
from .grid import Grid4

_ORDER = 5  # truncated series length (value + 4 derivatives)


def _series_mul(a, b):
    out = [0.0] * _ORDER
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < _ORDER:
                out[i + j] += ai * bj
    return out


def _series_recip(u):
    v = [0.0] * _ORDER
    v[0] = 1.0 / u[0]
    for n in range(1, _ORDER):
        v[n] = -sum(u[k] * v[n - k] for k in range(1, n + 1)) * v[0]
    return v


def _series_log(u):
    """log of a series with u[0] > 0 (via l' = u'/u, then integrate)."""
    du = [(k + 1) * u[k + 1] for k in range(_ORDER - 1)] + [0.0]
    dl = _series_mul(du, _series_recip(u))
    out = [math.log(u[0])]
    out += [dl[n - 1] / n for n in range(1, _ORDER)]
    return out


_CONSTANT = (1, 1, 1, 1)    # grid extents of a field constant on the box


def _diagonal(entries) -> dict:
    """The stored form (:func:`~pcgrav.fields.stacked`) of a (4, 4) field
    whose diagonal is ``entries``, every other component 0.0."""
    return stacked({(mu, mu): v for mu, v in enumerate(entries)}, (4, 4))


def minkowski_tetrad(grid: Grid4) -> FormField:
    return tetrad_field(grid, **_diagonal([np.ones(_CONSTANT)] * 4))


def minkowski_metric(grid: Grid4) -> MetricField:
    return MetricField(grid, **_diagonal(
        [np.full(_CONSTANT, float(eta)) for eta in ETA_DIAG]))


class MinkowskiChart:
    """Flat space with the chart methods of ``SchwarzschildIsotropic``."""

    def tetrad(self, grid: Grid4) -> FormField:
        return minkowski_tetrad(grid)

    def connection(self, grid: Grid4) -> FormField:
        return zeros(grid, 1, 2)

    def metric(self, grid: Grid4) -> MetricField:
        return minkowski_metric(grid)


@lru_cache(maxsize=16)
def _core_coefficients(mass: float, core_radius: float):
    """Even-polynomial continuations of (ln A, ln B) inside the core.

    Returns two length-5 arrays a with  ln P(rho) = sum_k a[k] rho^{2k},
    matched to the exact log-profiles at rho_c through 4 derivatives.
    """
    rc = core_radius
    mc = mass / (2.0 * rc)
    # series of m(rc + t) = mc * sum (-t/rc)^k
    m = [mc * (-1.0 / rc) ** k for k in range(_ORDER)]
    one_minus = [1.0 - m[0]] + [-x for x in m[1:]]
    one_plus = [1.0 + m[0]] + list(m[1:])
    log_a = [x - y for x, y in zip(_series_log(one_minus),
                                   _series_log(one_plus))]
    log_b = [2.0 * x for x in _series_log(one_plus)]

    rows = np.zeros((_ORDER, _ORDER))
    for j in range(_ORDER):           # derivative order
        for k in range(_ORDER):       # coefficient of rho^(2k)
            p = 2 * k
            if p >= j:
                fall = 1.0
                for step in range(j):
                    fall *= p - step
                with np.errstate(over="ignore"):  # huge M: inf, as 2M = inf
                    rows[j, k] = fall * np.float64(rc) ** (p - j)
    rhs_a = np.array([math.factorial(j) * log_a[j] for j in range(_ORDER)])
    rhs_b = np.array([math.factorial(j) * log_b[j] for j in range(_ORDER)])
    coeff_a = np.linalg.solve(rows, rhs_a)
    coeff_b = np.linalg.solve(rows, rhs_b)
    return coeff_a, coeff_b


@dataclass(frozen=True)
class SchwarzschildIsotropic:
    """Blended isotropic chart; exact Schwarzschild for rho >= core_radius."""

    mass: float
    core_radius: float = None

    def __post_init__(self):
        if self.core_radius is None:
            object.__setattr__(self, "core_radius",
                               2.0 * self.mass if self.mass > 0 else 1.0)
        # keeps 1 +- M/2rho positive on the core, for either sign of M
        if self.core_radius <= 0.55 * abs(self.mass):
            raise ValueError(
                f"core radius {self.core_radius!r} must clear the coordinate "
                f"horizon, above 0.55 |M| = {0.55 * abs(self.mass)!r}")

    def _regions(self, rho: np.ndarray):
        """Core mask, rho clamped to the core radius on the core (so the
        closed form stays finite at every node), and rho^2 at the core
        nodes alone, the only nodes that evaluate the polynomial."""
        core = ~(rho >= self.core_radius)     # a NaN radius is core
        return core, np.where(core, self.core_radius, rho), rho[core] ** 2

    def profiles(self, rho: np.ndarray):
        """A and B at the spatial radii ``rho``: the closed form at every
        node, then exp of the core polynomial written into the core nodes."""
        rho = np.asarray(rho, dtype=float)
        core, rho_safe, r2 = self._regions(rho)
        m = self.mass / (2.0 * rho_safe)
        a, b = np.asarray((1.0 - m) / (1.0 + m)), np.asarray((1.0 + m) ** 2)
        ca, cb = _core_coefficients(self.mass, self.core_radius)
        a[core] = np.exp(sum(c * r2 ** k for k, c in enumerate(ca)))
        b[core] = np.exp(sum(c * r2 ** k for k, c in enumerate(cb)))
        return a, b

    def radial_ratios(self, rho: np.ndarray, a: np.ndarray, b: np.ndarray):
        """(dA/drho)/rho and (dB/drho)/rho, given A and B at ``rho``.

        The ratios stay finite on the axis; only the connection reads them.
        The closed form is taken at every node; at the core nodes it is
        overwritten by dP/drho = P d(ln P)/drho, with ln P the even
        polynomial of ``profiles``.
        """
        rho = np.asarray(rho, dtype=float)
        core, rho_safe, r2 = self._regions(rho)
        m = self.mass / (2.0 * rho_safe)
        da = np.asarray(self.mass / (rho_safe ** 2 * (1.0 + m) ** 2) / rho_safe)
        db = np.asarray(-self.mass * (1.0 + m) / rho_safe ** 2 / rho_safe)
        ca, cb = _core_coefficients(self.mass, self.core_radius)
        # d/drho of sum c_k rho^(2k), divided by rho: even polynomial again
        dpa = sum(2 * k * c * r2 ** (k - 1) for k, c in enumerate(ca) if k)
        dpb = sum(2 * k * c * r2 ** (k - 1) for k, c in enumerate(cb) if k)
        da[core], db[core] = a[core] * dpa, b[core] * dpb
        return da, db

    def _grid_profiles(self, grid: Grid4):
        rho = grid.radius("spatial")
        return (rho,) + self.profiles(rho)

    def tetrad(self, grid: Grid4) -> FormField:
        _, a, b = self._grid_profiles(grid)
        return tetrad_field(grid, **_diagonal([a, b, b, b]))

    def connection(self, grid: Grid4) -> FormField:
        """Closed-form Levi-Civita spin connection of the (blended) tetrad.

        omega^{0i} = (A'/B) n_i dt,  omega^{ij} = (B'/B)(n_j dx^i - n_i dx^j).
        """
        rho, a, b = self._grid_profiles(grid)
        da_r, db_r = self.radial_ratios(rho, a, b)
        comps = {(0, PAIR_INDEX[(0, i)]): (da_r / b) * grid.coordinate(i)
                 for i in range(1, 4)}
        ratio = db_r / b
        for i in range(1, 4):
            for j in range(i + 1, 4):
                xi, xj = grid.coordinate(i), grid.coordinate(j)
                p = PAIR_INDEX[(i, j)]
                comps[i, p] = 0.0 + ratio * xj   # omega^{ij}_i = (B'/B) n_j
                comps[j, p] = 0.0 - ratio * xi   # omega^{ij}_j = -(B'/B) n_i
        return FormField(grid, 1, 2, **stacked(comps, (4, 6)))

    def metric(self, grid: Grid4) -> MetricField:
        _, a, b = self._grid_profiles(grid)
        return MetricField(grid, **_diagonal([-a ** 2] + [b ** 2] * 3))

    def areal_radius(self, rho):
        return rho * (1.0 + self.mass / (2.0 * np.asarray(rho, float))) ** 2

    def kretschmann(self, rho):
        """Curvature-squared invariant profile, valid for rho >= core_radius."""
        return 48.0 * self.mass ** 2 / self.areal_radius(rho) ** 6

    def adm_integrand_energy(self, rho):
        """Exact value of the large-sphere energy integral at finite radius."""
        return self.mass * (1.0 + self.mass / (2.0 * np.asarray(rho, float))) ** 3
