"""Vector-valued differential forms on a 4D grid.

A :class:`FormField` is a spacetime p-form (p = 0..4) taking values in an
internal antisymmetric power Lambda^k V of the 4-dim reference space V
(k = 0 is a scalar, k = 1 is V itself, k = 2 carries the so(3,1) bracket).
Components are stored component-major, on strictly increasing multi-indices
for both the spacetime and the internal slots:

    data[S, I, t, x, y, z]   S over LAMBDA_BASES[p], I over LAMBDA_BASES[k]

so each component is a contiguous node array.  Each grid axis has extent
N or 1: a field that does not depend on a coordinate (a static field on
t) stores one node along it, and products, sums and norms broadcast over
that axis.  A field's max-norm (:meth:`FormField.region_norm`) runs
outside the excised ball its grid carries.

A field may also live on a :class:`~pcgrav.grid.Window` of t slices.
``wedge`` is pointwise and runs on one as on the grid, but d/dt needs the
slices around, so ``ext_d`` refuses a window field unless it is a
:class:`RingSlice`, which takes d/dt from a ring of its neighbours with
the stencils of the grid.  The Leibniz ladder streams t this way, and so
do the boost residuals of static fields in ``scenarios``.
``wedge`` and ``ext_d`` keep no state between calls and run in the calling
thread, in one fixed order of operations, so results are the same bits
whichever thread calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conventions import (ETA_DIAG, LAMBDA_BASES, RHO_ON_LAMBDA,
                          SO31_STRUCTURE, perm_sign)
from .grid import (Grid4, Window, diff_axis, diff_ring, integrate_samples,
                   region_max)

INTERNAL_DIMS = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
INTERNAL_TAGS = {0: "scalar", 1: "V", 2: "Lambda2V", 3: "Lambda3V", 4: "Lambda4V"}
_INDEX = {k: {mi: n for n, mi in enumerate(LAMBDA_BASES[k])} for k in LAMBDA_BASES}


class FormFieldError(ValueError):
    pass


class DegenerateTetradError(FormFieldError):
    pass


@dataclass(frozen=True)
class FormField:
    grid: Grid4
    degree: int
    internal: int
    data: np.ndarray

    def __post_init__(self):
        _check_shape(self.data, (len(LAMBDA_BASES[self.degree]),
                                 INTERNAL_DIMS[self.internal]), self.grid)

    @property
    def internal_tag(self) -> str:
        return INTERNAL_TAGS[self.internal]

    def component(self, st_index=(), internal_index=()) -> np.ndarray:
        """Named component on the grid, e.g. component((0, 1), (2, 3))."""
        s = _INDEX[self.degree][tuple(st_index)]
        i = _INDEX[self.internal][tuple(internal_index)]
        return self.data[s, i]

    def _like(self, data) -> "FormField":
        return FormField(self.grid, self.degree, self.internal, data)

    def __add__(self, other):
        self._check_like(other)
        return self._like(self.data + other.data)

    def __sub__(self, other):
        self._check_like(other)
        return self._like(self.data - other.data)

    def __mul__(self, scalar):
        return self._like(self.data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.data)

    def _check_like(self, other):
        if (self.grid != other.grid or self.degree != other.degree
                or self.internal != other.internal):
            raise FormFieldError("fields live in different spaces")

    def max_abs(self) -> float:
        return float(np.abs(self.data).max())

    def region_norm(self) -> float:
        """Max |component| outside the grid's ball, away from box faces."""
        return region_max(self.data, self.grid)

    def _derivative(self, s: int, mu: int, out: np.ndarray,
                    scratch: np.ndarray) -> bool:
        """d_mu of the spacetime component ``data[s]`` (every internal
        component) into ``out``; False along an axis of extent 1, where it
        is exact zeros."""
        if mu == 0 and isinstance(self.grid, Window):
            raise FormFieldError(
                "d/dt of a field on a t window reads slices outside it; "
                "differentiate a RingSlice")
        if self.data.shape[2 + mu] == 1:
            return False
        diff_axis(self.data[s], 1 + mu, self.grid.spacing, out=out,
                  scratch=scratch)
        return True


@dataclass(frozen=True)
class RingSlice(FormField):
    """One t slice of a form, on a one-slice window, whose neighbours sit
    in a ring: ``ring[i % len(ring)]`` holds slice i, components first,
    for every slice i within two of this one.  ``ext_d`` takes d/dt from
    the ring with the stencil of :func:`~pcgrav.grid.diff_axis`."""
    ring: np.ndarray

    @classmethod
    def of(cls, ring: np.ndarray, grid: Grid4, t: int, degree: int,
           internal: int) -> "RingSlice":
        return cls(grid.window(t, t + 1), degree, internal,
                   ring[t % len(ring)][:, :, None], ring)

    def _derivative(self, s, mu, out, scratch):
        if mu:
            return super()._derivative(s, mu, out, scratch)
        # one internal component at a time: its five slices stay in cache
        window = self.grid
        for c, dst in enumerate(out):
            diff_ring(self.ring[:, s, c], window.t0, window.grid.points,
                      window.spacing, dst[0], scratch)
        return True


def _check_shape(data: np.ndarray, leading: tuple, grid) -> None:
    """Component axes ``leading``, then on each axis of the grid (or
    window) its extent or 1."""
    extents = data.shape[len(leading):]
    if (data.shape[:len(leading)] != leading or len(extents) != 4
            or any(n not in (1, m) for n, m in zip(extents, grid.shape))):
        raise FormFieldError(
            f"component array has shape {data.shape}, expected "
            f"{leading + grid.shape} (or extent 1 on a grid axis)")
    data.setflags(write=False)


def _into(out: np.ndarray, shape: tuple) -> np.ndarray:
    """A view of a caller's ``out``, checked as diff_axis checks it.

    The field built on the view makes only the view read-only, so the
    caller can fill the buffer again.
    """
    if out.shape != shape or not out.flags.c_contiguous:
        raise FormFieldError(f"out must be C-contiguous with shape {shape}, "
                             f"got {out.shape}")
    return out.view()


def live_components(data: np.ndarray) -> np.ndarray:
    """Which components (leading axes) are not zero at every node.

    The first node decides most components, and the first t slice most of
    the rest; only those zero on it are scanned whole.
    """
    # an array even when data has no component axis and live is 0-d
    live = np.asarray(data[..., 0, 0, 0, 0] != 0.0)
    if not live.all():
        live |= np.any(data[..., :1, :, :, :] != 0.0, axis=(-4, -3, -2, -1))
        for c in np.argwhere(~live):
            live[tuple(c)] = np.any(data[tuple(c)] != 0.0)
    return live


def zeros(grid: Grid4, degree: int, internal: int) -> FormField:
    """The zero field, stored with extent 1 on every grid axis."""
    shape = (len(LAMBDA_BASES[degree]), INTERNAL_DIMS[internal], 1, 1, 1, 1)
    return FormField(grid, degree, internal, np.zeros(shape))


def scalar_form(grid: Grid4, degree: int, components: dict) -> FormField:
    """Scalar-valued p-form from {increasing multi-index: node samples}.

    The samples broadcast; the form keeps their common grid extents.
    """
    shape = np.broadcast_shapes((1, 1, 1, 1),
                                *(np.shape(v) for v in components.values()))
    out = np.zeros((len(LAMBDA_BASES[degree]), 1) + shape)
    for mi, samples in components.items():
        out[_INDEX[degree][tuple(mi)], 0] = samples
    return FormField(grid, degree, 0, out)


# ---------------------------------------------------------------------------
# Merge tables and the product planner
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def merge_table(p: int, q: int):
    """Sparse wedge table [(i, j, k, sign)] on increasing multi-indices."""
    entries = []
    for i, left in enumerate(LAMBDA_BASES[p]):
        for j, right in enumerate(LAMBDA_BASES[q]):
            sign = perm_sign(left + right)
            if sign == 0:
                continue
            k = _INDEX[p + q][tuple(sorted(left + right))]
            entries.append((i, j, k, sign))
    return tuple(entries)


@lru_cache(maxsize=None)
def _internal_entries(ka: int, kb: int, rule: str):
    """Sparse entries [(u, v, m, coeff)] of the internal pairing."""
    if rule == "wedge":
        if ka + kb > 4:
            raise FormFieldError(
                f"internal wedge Lambda^{ka} x Lambda^{kb} overflows Lambda^4")
        return merge_table(ka, kb), ka + kb
    if rule == "bracket":
        if ka != 2 or kb != 2:
            raise FormFieldError("bracket rule needs Lambda^2 on both sides")
        entries = [(u, v, m, int(c))
                   for (u, v, m), c in np.ndenumerate(SO31_STRUCTURE)
                   if c != 0]
        return tuple(entries), 2
    if rule == "action":
        if ka != 2 or kb not in (1, 2, 3, 4):
            raise FormFieldError("action rule needs Lambda^2 acting on Lambda^k")
        rho = RHO_ON_LAMBDA[kb]
        entries = [(u, v, m, int(c))
                   for (u, v, m), c in np.ndenumerate(rho)
                   if c != 0]
        return tuple(entries), kb
    raise FormFieldError(f"unknown internal rule {rule!r}")


@lru_cache(maxsize=None)
def _wedge_plan(pa: int, ka: int, pb: int, kb: int, rule: str):
    """Scalar terms grouped by input component pair.

    Each entry reads one product a[ia, ua] * b[ib, ub] and scatters it into
    the listed output components with fixed coefficients.
    """
    internal, k_out = _internal_entries(ka, kb, rule)
    groups = {}
    for i, j, k, s in merge_table(pa, pb):
        for u, v, m, c in internal:
            groups.setdefault((i, u, j, v), []).append((k, m, float(s * c)))
    plan = tuple((i, u, j, v, tuple(outs))
                 for (i, u, j, v), outs in groups.items())
    return k_out, plan


def wedge(a: FormField, b: FormField, rule: str = "wedge",
          out: np.ndarray = None, scratch: np.ndarray = None,
          b_live: np.ndarray = None) -> FormField:
    """Graded wedge on spacetime indices with the named internal pairing.

    rule="wedge": internal exterior product (scalars multiply through);
    rule="bracket": so(3,1) commutator, both internals Lambda^2;
    rule="action": so(3,1) representation of the first factor's Lambda^2
    values on the second factor's internal space.

    The result goes to ``out`` if given (a C-contiguous float array of its
    shape, not overlapping the operands); ``scratch``, if given, is a flat
    float array of at least one t slice's nodes.  ``b_live``, if given, is
    ``live_components`` of the field ``b`` is a window piece of: a caller
    that wedges every piece with it finds that once, and each piece skips
    the products the whole field would.
    """
    if a.grid != b.grid:
        raise FormFieldError("fields on different grids")
    if a.degree + b.degree > 4:
        raise FormFieldError("spacetime degree overflow")
    k_out, plan = _wedge_plan(a.degree, a.internal, b.degree, b.internal, rule)
    p_out = a.degree + b.degree
    shape = np.broadcast_shapes(a.data.shape[2:], b.data.shape[2:])
    # all-zero components contribute exact zeros: skip their products
    a_live = live_components(a.data)
    if b_live is None:
        b_live = live_components(b.data)
    # each output component's first term is written as 0.0 + term, the
    # bits that adding it to zeros gives; one with no term is zeros
    written = set()
    steps = []
    for i, u, j, v, outs in plan:
        if a_live[i, u] and b_live[j, v]:
            marked = []
            for k, m, c in outs:
                marked.append((k, m, c, (k, m) not in written))
                written.add((k, m))
            steps.append((i, u, j, v, marked))
    out_shape = (len(LAMBDA_BASES[p_out]), INTERNAL_DIMS[k_out]) + shape
    out = np.empty(out_shape) if out is None else _into(out, out_shape)
    for k, m in np.ndindex(out_shape[:2]):
        if (k, m) not in written:
            out[k, m] = 0.0
    prod = (np.empty(shape[1:]) if scratch is None
            else scratch[:math.prod(shape[1:])].reshape(shape[1:]))
    # one t slice at a time, so a slice's operands stay in cache; an
    # operand of t extent 1 reads its single slice
    for t in range(shape[0]):
        a_t = a.data[:, :, min(t, a.data.shape[2] - 1)]
        b_t = b.data[:, :, min(t, b.data.shape[2] - 1)]
        out_t = out[:, :, t]
        for i, u, j, v, outs in steps:
            np.multiply(a_t[i, u], b_t[j, v], out=prod)
            for k, m, c, first in outs:
                dst = out_t[k, m]
                if c == 1.0:
                    np.add(0.0 if first else dst, prod, out=dst)
                elif c == -1.0:
                    np.subtract(0.0 if first else dst, prod, out=dst)
                elif first:
                    np.multiply(c, prod, out=dst)
                    np.add(0.0, dst, out=dst)
                else:
                    dst += c * prod
    return FormField(a.grid, p_out, k_out, out)


def form_dgla_bracket(a: FormField, b: FormField) -> FormField:
    """Forms-dgla bracket: spacetime wedge with the so(3,1) commutator;
    both operands take Lambda^2 values."""
    return wedge(a, b, rule="bracket")


def ext_d(a: FormField, out: np.ndarray = None,
          scratch: np.ndarray = None) -> FormField:
    """Finite-difference exterior derivative (4th order interior stencils).

    Derivatives along a grid axis of extent 1 are exact zeros and skipped.
    For each target, the first live term is differentiated straight into
    the output (negated in place if its sign is odd), the later ones into a
    buffer and then added in order, all internal components at once.  A
    target with no live term is 0.0.  Against adding every term to zeros,
    only the sign of an exact zero can differ.

    ``a`` is a field on the grid or a :class:`RingSlice`.  The result goes
    to ``out`` if given (as in :func:`wedge`); ``scratch``, if given, is a
    flat float array of at least two targets' nodes.
    """
    if a.degree >= 4:
        raise FormFieldError("cannot raise degree above 4")
    p = a.degree
    targets = LAMBDA_BASES[p + 1]
    target_shape = (INTERNAL_DIMS[a.internal],) + a.data.shape[2:]
    out_shape = (len(targets),) + target_shape
    out = np.empty(out_shape) if out is None else _into(out, out_shape)
    nodes = math.prod(target_shape)
    if scratch is None:
        scratch = np.empty(2 * nodes)
    term, scratch = scratch[:nodes].reshape(target_shape), scratch[nodes:]
    for acc, target in zip(out, targets):
        first = True
        for m, mu in enumerate(target):
            source = _INDEX[p][target[:m] + target[m + 1:]]
            if not a._derivative(source, mu, acc if first else term,
                                 scratch):
                continue
            if first:
                if m % 2:
                    np.negative(acc, out=acc)
                first = False
            elif m % 2:
                acc -= term
            else:
                acc += term
        if first:
            acc[...] = 0.0
    return FormField(a.grid, p + 1, a.internal, out)


def cov_d(omega: FormField, a: FormField) -> FormField:
    """Covariant differential d a + rho(omega) ^ a for V or Lambda^2 values."""
    if omega.degree != 1 or omega.internal != 2:
        raise FormFieldError("connection must be a Lambda^2-valued 1-form")
    if a.internal not in (1, 2):
        raise FormFieldError(
            f"covariant differential not defined on {a.internal_tag}")
    return ext_d(a) + wedge(omega, a, rule="action")


def curvature(omega: FormField) -> FormField:
    """F = d omega + (1/2)[omega, omega]."""
    return ext_d(omega) + 0.5 * form_dgla_bracket(omega, omega)


def trace4(a: FormField) -> FormField:
    """Contract Lambda^4 values with eps (eps_0123 = +1, no raising)."""
    if a.degree != 4 or a.internal != 4:
        raise FormFieldError("trace needs a Lambda^4-valued 4-form")
    return FormField(a.grid, 4, 0, a.data)


def integrate(a: FormField, region: np.ndarray = None) -> float:
    """Quadrature of a scalar 4-form's single component over the box."""
    if a.degree != 4 or a.internal != 0:
        raise FormFieldError("integrate needs a scalar-valued 4-form")
    return integrate_samples(a.data[0, 0], a.grid, region)


# ---------------------------------------------------------------------------
# Tetrads, metrics, connections
# ---------------------------------------------------------------------------

DEGENERACY_THRESHOLD = 1e-8


@dataclass(frozen=True)
class MetricField:
    grid: Grid4
    data: np.ndarray  # (4, 4) + grid extents, symmetric in the leading axes

    def __post_init__(self):
        _check_shape(self.data, (4, 4), self.grid)


def tetrad_field(grid: Grid4, data: np.ndarray) -> FormField:
    """V-valued 1-form e^a_mu = data[mu, a], checked nondegenerate."""
    e = FormField(grid, 1, 1, data)
    check_nondegenerate(e)
    return e


def tetrad_determinants(e: FormField) -> np.ndarray:
    # a NaN sample gives a NaN determinant, which the caller reports
    with np.errstate(invalid="ignore"):
        return np.linalg.det(np.moveaxis(e.data, (0, 1), (-2, -1)))


def check_nondegenerate(e: FormField) -> None:
    dets = np.abs(tetrad_determinants(e))
    bad = ~(dets > DEGENERACY_THRESHOLD)  # NaN counts as degenerate
    if bad.any():
        # along an axis of extent 1 the field is the same at every node;
        # index 0 names a real one
        node = np.unravel_index(np.argmax(bad), bad.shape)
        coords = [float(e.grid.axis_coordinates()[i]) for i in node]
        raise DegenerateTetradError(
            f"tetrad degenerate at node {tuple(int(i) for i in node)} "
            f"(x = {coords}, |det| = {dets[node]:.3e})")


def inverse_tetrad(e: FormField) -> np.ndarray:
    """einv[a, mu] on the grid, with e^a_mu einv[a, nu] = delta^nu_mu."""
    check_nondegenerate(e)
    inv = np.linalg.inv(np.moveaxis(e.data, (0, 1), (-2, -1)))
    return np.moveaxis(inv, (-2, -1), (0, 1))


def metric_from_tetrad(e: FormField) -> MetricField:
    """g_mn = eta_ab e^a_m e^b_n."""
    check_nondegenerate(e)
    eta = np.asarray(ETA_DIAG, dtype=float)[None, :, None, None, None, None]
    g = np.einsum("ma...,na...->mn...", e.data * eta, e.data)
    return MetricField(e.grid, g)


def lorentzian_signature_ok(g: MetricField) -> bool:
    """Exactly one negative eigenvalue at every node."""
    eigs = np.linalg.eigvalsh(np.moveaxis(g.data, (0, 1), (-2, -1)))
    return bool(((eigs < 0).sum(axis=-1) == 1).all())


def levi_civita_connection(e: FormField) -> FormField:
    """The unique metric connection with vanishing covariant torsion.

    Built from the anholonomy of the (finite-difference) exterior derivative
    of e, so cov_d(omega, e) vanishes to round-off by construction when the
    same stencils are used.
    """
    grid = e.grid
    shape = e.data.shape[2:]
    einv = inverse_tetrad(e)          # einv[a, mu] = E^mu_a
    de = ext_d(e)                     # A^h_(mu nu) on increasing pairs

    # frame-index anholonomy on pairs: A^h_ab = E^mu_a E^nu_b (de)^h_mu_nu,
    # with the internal index lowered on the fly: A_{h,(ab)}
    pairs = LAMBDA_BASES[2]
    lowered = np.zeros((6, 4) + shape)
    for t, (aa, bb) in enumerate(pairs):
        for s, (mu, nu) in enumerate(pairs):
            pp = (einv[aa, mu] * einv[bb, nu] - einv[bb, mu] * einv[aa, nu])
            for hh in range(4):
                lowered[t, hh] += ETA_DIAG[hh] * pp * de.data[s, hh]
    del de, einv

    def a_term(internal, j, k):
        if j == k:
            return 0.0
        if j < k:
            return lowered[_INDEX[2][(j, k)], internal]
        return -lowered[_INDEX[2][(k, j)], internal]

    # W_afb = (A_abf - A_fab - A_bfa)/2, then
    # omega^{fb}_mu = e^a_mu eta^f eta^b W_afb
    omega = np.zeros((4, 6) + shape)
    for t, (f, b) in enumerate(pairs):
        sign = ETA_DIAG[f] * ETA_DIAG[b]
        for a in range(4):
            w = 0.5 * (a_term(a, b, f) - a_term(f, a, b) - a_term(b, f, a))
            for mu in range(4):
                omega[mu, t] += sign * e.data[mu, a] * w
    return FormField(grid, 1, 2, omega)

