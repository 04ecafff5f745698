"""ADM energy and Komar mass as large-sphere surface integrals.

Both take the metric on the central t = const slice of the 4D grid.
Spatial derivatives use the grid stencils, on the components that are not
zero everywhere; values are interpolated to the quadrature spheres with
separable cubic Lagrange interpolation, one batched contraction per
sphere; sums are fixed-order and exactly rounded, so results are
bit-reproducible.

Conventions (documented in docs/conventions.md):

    E(rho_s)  = (1/16 pi) oint (d_j g_ij - d_i g_jj) nhat_i  rho_s^2 dOmega
    M_K(rho_s) = (1/4 pi) oint N^i d_i alpha  sqrt(sigma) dc dphi

with nhat the flat unit normal for ADM; for Komar, alpha = sqrt(-g_tt) is
the static lapse, N the unit normal of the coordinate sphere in the slice
metric, and sigma the induced area element.  The Komar normalization is
pinned so a static spherically symmetric vacuum exterior reports its mass
parameter exactly in the continuum, at every radius.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from .fields import MetricField, stack_rows
from .grid import Grid4, diff_axis
from .symmetry import PoincareElement, lie_derivative_metric


class MassDomainError(ValueError):
    """Input metric outside the operator's domain (not flat enough, not
    static, or giving a non-finite mass)."""


# The fixed surface-integral rule (docs/conventions.md, "Mass normalizations")
N_THETA, N_PHI = 8, 16        # Gauss-Legendre x uniform-azimuth nodes
INTERPOLATION_ORDER = 3       # cubic Lagrange
STATIONARITY_TOL = 1e-8       # Komar: Killing residual / max(1, max|g|)


# ---------------------------------------------------------------------------
# Sphere quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def sphere_quadrature():
    """Gauss-Legendre x uniform-azimuth product rule on the unit sphere:
    (directions, cos theta, phi, weights) per node.

    Exact for spherical harmonics up to degree min(2 N_THETA - 1,
    N_PHI - 1); the weights sum to 4 pi.  The rule is built once: every
    call returns the same read-only arrays.
    """
    c, w = np.polynomial.legendre.leggauss(N_THETA)
    phi = 2.0 * np.pi * np.arange(N_PHI) / N_PHI
    cc, pp = np.meshgrid(c, phi, indexing="ij")
    ww = np.repeat(w[:, None], N_PHI, axis=1) * (2.0 * np.pi / N_PHI)
    s = np.sqrt(1.0 - cc ** 2)
    direction = np.stack([s * np.cos(pp), s * np.sin(pp), cc], axis=-1)
    rule = direction.reshape(-1, 3), cc.ravel(), pp.ravel(), ww.ravel()
    for array in rule:
        array.setflags(write=False)
    return rule


def _fsum(values: np.ndarray) -> float:
    return math.fsum(values.ravel().tolist())


# ---------------------------------------------------------------------------
# Slice extraction and interpolation
# ---------------------------------------------------------------------------

def central_slice(g: MetricField) -> np.ndarray:
    """The live metric components on the t = 0 slice, stacked in the
    order of ``g.live``: shape (n_live, N, N, N).

    A static metric stores one t node, which is that slice; a read-only
    view broadcasts any spatial axis of extent 1.
    """
    n, stack = g.grid.points, g.stack
    return np.broadcast_to(stack[:, (stack.shape[1] - 1) // 2],
                           (len(stack), n, n, n))


def _spatial(g: MetricField):
    """The live components of g_ij (i, j = 1..3) on the t = 0 slice,
    stacked, and their (3, 3) live set."""
    live = g.live[1:, 1:]
    return central_slice(g)[stack_rows(g.live)[1:, 1:][live]], live


def _lagrange_coefficients(frac: np.ndarray) -> np.ndarray:
    """Weights of the points i0..i0+INTERPOLATION_ORDER for unit spacing.

    ``frac`` is a vector of positions past i0; returns (n, ORDER + 1).
    Each weight is a running product over the other nodes, in node order.
    """
    nodes = np.arange(INTERPOLATION_ORDER + 1, dtype=float)
    weights = np.ones(np.shape(frac) + nodes.shape)
    for k in range(len(nodes)):
        for m in range(len(nodes)):
            if m != k:
                weights[:, k] *= (frac - nodes[m]) / (nodes[k] - nodes[m])
    return weights


def interpolate_slice(values: np.ndarray, grid: Grid4,
                      points: np.ndarray) -> np.ndarray:
    """Separable cubic Lagrange interpolation of slice samples at points.

    ``values`` has shape (..., N, N, N) with components leading; ``points``
    is (n, 3) in box coordinates.  Returns (n, ...).

    Each point reads the 4x4x4 block of nodes around it, shifted inward at
    a box face.  One gather collects the blocks of all points and one
    contraction weights them; each point's sum is the one a contraction of
    its block alone gives, term by term in the same order.
    """
    order = INTERPOLATION_ORDER
    n = grid.points
    h = grid.spacing
    coords = (np.asarray(points) + grid.half_width) / h
    base = np.floor(coords).astype(int) - (order - 1) // 2
    base = np.clip(base, 0, n - order - 1)
    frac = coords - base
    wx, wy, wz = (_lagrange_coefficients(frac[:, a]) for a in range(3))
    ix, iy, iz = (base[:, a, None] + np.arange(order + 1) for a in range(3))
    blocks = values[..., ix[:, :, None, None], iy[:, None, :, None],
                    iz[:, None, None, :]]
    return np.einsum("pi,pj,pk,...pijk->p...", wx, wy, wz, blocks)


def _interpolate_live(values: np.ndarray, live: np.ndarray, grid: Grid4,
                      points: np.ndarray) -> np.ndarray:
    """:func:`interpolate_slice` of the stacked components ``values`` of
    the live set ``live``, scattered: the others keep the +0.0 of
    ``np.zeros``, which is what interpolating zero samples gives."""
    out = np.zeros((len(points),) + live.shape)
    out[:, live] = interpolate_slice(values, grid, points)
    return out


def _slice_gradient(values: np.ndarray, live: np.ndarray,
                    h: float) -> np.ndarray:
    """d_i of the stacked slice components ``values`` of the live set
    ``live``, scattered on a new leading axis.

    The others keep the +0.0 of ``np.zeros``, which is what the stencils
    give on zero samples.
    """
    grads = np.zeros((3,) + live.shape + values.shape[1:])
    for i, axis in enumerate((-3, -2, -1)):
        grads[i][live] = diff_axis(values, axis, h)
    return grads


# ---------------------------------------------------------------------------
# Richardson extrapolation in inverse radius
# ---------------------------------------------------------------------------

def extrapolate_in_radius(radii, values):
    """Least-squares fit a0 + a1/rho + a2/rho^2; returns (a0, slope).

    ``slope`` is the log-log rate of |value - a0| against 1/rho, or None
    when the values are already flat to round-off.
    """
    radii = np.asarray(radii, float)
    values = np.asarray(values, float)
    if len(radii) < 2:
        return float(values[-1]), None
    u = 1.0 / radii
    ncoef = min(3, len(radii))
    vand = np.vander(u, ncoef, increasing=True)
    coef, *_ = np.linalg.lstsq(vand, values, rcond=None)
    a0 = float(coef[0])
    resid = np.abs(values - a0)
    scale = max(1.0, np.abs(values).max())
    if np.all(resid <= 1e-12 * scale):
        return a0, None
    good = resid > 1e-14 * scale
    if good.sum() < 2:
        return a0, None
    slope = np.polyfit(np.log(u[good]), np.log(resid[good]), 1)[0]
    return a0, float(slope)


# ---------------------------------------------------------------------------
# Surface integrals over a ladder of spheres
# ---------------------------------------------------------------------------

def _spheres(grid: Grid4, radii):
    """Sorted radii, checked inside the box, and the unit-sphere rule."""
    radii = sorted(float(r) for r in radii)
    if not radii:
        raise ValueError("need at least one radius")
    if radii[-1] >= grid.half_width - grid.spacing:
        raise ValueError("largest radius too close to the box boundary")
    return radii, sphere_quadrature()


def _surface_integrals(quantity: str, radii, weighted_integrand,
                       normalization: float):
    """Exactly rounded sum of ``weighted_integrand(rho)`` per radius, over
    ``normalization``, and the 1/rho extrapolation of those values.

    A non-finite value is refused, naming ``quantity`` and its radius.
    """
    values = [_fsum(weighted_integrand(rho)) / normalization for rho in radii]
    for rho, value in zip(radii, values):
        if not math.isfinite(value):
            raise MassDomainError(f"{quantity} is {value!r} at rho = {rho!r}")
    extrapolated, slope = extrapolate_in_radius(radii, values)
    return {"radii": radii, "values": values,
            "extrapolated": extrapolated, "slope": slope}


def adm_energy(g: MetricField, radii):
    """Per-radius surface energies and their 1/rho extrapolation.

    The slice must be asymptotically flat in the chart: |g_ij - delta| < 1
    at the largest requested radius.
    """
    grid = g.grid
    radii, (directions, _, _, unit_w) = _spheres(grid, radii)
    spatial, live = _spatial(g)

    # flatness check at the largest radius
    probe = _interpolate_live(spatial, live, grid, radii[-1] * directions)
    deviation = np.abs(probe - np.eye(3)).max()
    if not deviation < 1.0:    # NaN is not flat
        raise MassDomainError(
            f"slice is not asymptotically flat: |g - delta| = {deviation:.3f} "
            f"at rho = {radii[-1]}")

    # V_i = d_j g_ij - d_i g_jj, from grid stencils on the slice
    grads = _slice_gradient(spatial, live, grid.spacing)  # d_k g_ij
    v = np.einsum("jij...->i...", grads) - np.einsum("ijj...->i...", grads)

    def flux(rho):
        samples = interpolate_slice(v, grid, rho * directions)
        return np.einsum("ni,ni->n", samples, directions) * unit_w * rho ** 2

    return _surface_integrals("ADM energy", radii, flux, 16.0 * np.pi)


def komar_mass(g: MetricField, radii):
    """Komar surface integrals of the static lapse, per radius.

    Precondition: the metric is stationary under time translation P0,
    checked through the Killing residual.
    """
    grid = g.grid
    radii, (directions, cosines, phis, unit_w) = _spheres(grid, radii)
    # stationarity is checked outside the smallest sphere, spatially,
    # whatever ball the metric's own grid excises
    ball = replace(grid, inner_radius=radii[0], radius_mode="spatial")
    kr_norm = lie_derivative_metric(replace(g, grid=ball, data=None),
                                    PoincareElement.from_name("P0")
                                    ).region_norm()
    scale = g.max_abs()
    # a NaN residual compares false either way: only a small one passes
    if not kr_norm <= STATIONARITY_TOL * max(1.0, scale):
        raise MassDomainError(
            f"metric is not stationary: Killing residual {kr_norm:.3e}")

    tt = stack_rows(g.live)[0, 0]
    if tt < 0 or np.any(central_slice(g)[tt] >= 0.0):
        raise MassDomainError("slice has non-timelike Killing direction")
    # g_tt < 0 everywhere: the lapse is live
    lapse = np.sqrt(-central_slice(g)[tt:tt + 1])
    spatial, live = _spatial(g)
    dlapse = _slice_gradient(lapse, np.ones(1, dtype=bool),
                             grid.spacing)[:, 0]
    # embedding tangents in (c, phi) on the unit sphere; d/dc of
    # (s cosp, s sinp, c) uses ds/dc = -c/s (Gauss nodes are interior, s > 0)
    s = np.sqrt(1.0 - cosines ** 2)
    unit_t_c = np.stack([-cosines / s * np.cos(phis),
                         -cosines / s * np.sin(phis),
                         np.ones_like(s)], axis=-1)
    unit_t_p = np.stack([-np.sin(phis) * s, np.cos(phis) * s,
                         np.zeros_like(s)], axis=-1)

    def flux(rho):
        pts = rho * directions
        gamma = _interpolate_live(spatial, live, grid, pts)
        grad_a = interpolate_slice(dlapse, grid, pts)
        gamma_inv = np.linalg.inv(gamma)
        raised = np.einsum("nij,nj->ni", gamma_inv, directions)
        length = np.sqrt(np.einsum("ni,ni->n", raised, directions))
        normal = raised / length[:, None]
        t_c, t_p = unit_t_c * rho, unit_t_p * rho
        e_cc = np.einsum("nij,ni,nj->n", gamma, t_c, t_c)
        e_cp = np.einsum("nij,ni,nj->n", gamma, t_c, t_p)
        e_pp = np.einsum("nij,ni,nj->n", gamma, t_p, t_p)
        area = np.sqrt(np.clip(e_cc * e_pp - e_cp ** 2, 0.0, None))
        return np.einsum("ni,ni->n", normal, grad_a) * area * unit_w

    return _surface_integrals("Komar mass", radii, flux, 4.0 * np.pi)


# ---------------------------------------------------------------------------
# Positivity
# ---------------------------------------------------------------------------

def positivity_check(energy: float, momentum) -> dict:
    """E >= |P| verdict with the rest mass sqrt(E^2 - |P|^2)."""
    p = float(np.linalg.norm(np.asarray(momentum, dtype=float)))
    ok = energy >= p
    result = {"energy": float(energy), "momentum_norm": p, "passed": bool(ok)}
    if ok:
        result["mass"] = math.sqrt(max(energy ** 2 - p ** 2, 0.0))
        if result["mass"] == 0.0:
            result["note"] = ("mass is zero: consistent only with flat space "
                              "(rigidity case; reported, not proven)")
    else:
        result["message"] = ("E >= |P| fails; the positive-energy bound "
                             "assumes the dominant energy condition, which "
                             "this data cannot satisfy")
    return result
