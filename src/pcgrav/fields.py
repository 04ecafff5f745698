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

A field knows which of its components may be nonzero (``live``): every
other one is exactly 0.0 at every node.  ``wedge`` gives its result the
components it wrote and ``zeros`` none; any other field scans its data
once, on first use, and keeps the set.  ``wedge`` multiplies only live
components, norms read only live ones, and a diagonal live set gives a
tetrad's determinant as a product (:func:`tetrad_determinants`).

A field may also live on a :class:`~pcgrav.grid.Window`, one t slice.
``wedge`` is pointwise and runs on one as on the grid, but d/dt needs the
slices around, so ``ext_d`` refuses a window field unless it is a
:class:`RingSlice`, which takes d/dt from a ring of its neighbours with
the stencils of the grid.  The Leibniz ladder streams t this way, and so
do the boost residuals of static fields in ``scenarios`` and, in radius
mode "4d", every coupling term.
``wedge`` and ``ext_d`` allocate their own results, keep no state between
calls and run in the calling thread, in one fixed order of operations, so
results are the same bits whichever thread calls them.  ``cov_d`` and
``curvature`` add d a into a copy of their other term, made before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
class _Samples:
    """Node samples whose components ``live`` names.

    A producer that knows which components it wrote passes them as
    ``_live``; any other field scans its data on the first read of
    ``live`` (:func:`live_components`) and keeps the result.  A restriction
    made with ``dataclasses.replace`` keeps the set, which holds on every
    piece of the samples.
    """
    _live: np.ndarray = field(default=None, kw_only=True, repr=False,
                              compare=False)

    @property
    def live(self) -> np.ndarray:
        """Which components (leading axes) may be nonzero: every other one
        is exactly 0.0 at every node."""
        if self._live is None:
            object.__setattr__(self, "_live", live_components(self.data))
        return self._live


@dataclass(frozen=True)
class FormField(_Samples):
    grid: Grid4
    degree: int
    internal: int
    data: np.ndarray

    def __post_init__(self):
        _check_shape(self.data, (len(LAMBDA_BASES[self.degree]),
                                 INTERNAL_DIMS[self.internal]), self.grid)

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

    def _check_like(self, other):
        if (self.grid != other.grid or self.degree != other.degree
                or self.internal != other.internal):
            raise FormFieldError("fields live in different spaces")

    def max_abs(self) -> float:
        return float(np.abs(self.data).max())

    def region_norm(self) -> float:
        """Max |component| outside the grid's ball, away from box faces.

        Only the live components are read; with none live, one component
        of zeros gives the 0.0 (and the warning of an empty region)."""
        comps = [self.data[c] for c in zip(*np.nonzero(self.live))]
        return region_max(comps or [self.data[0, 0]], self.grid)

    def _derivative(self, s: int, mu: int, out: np.ndarray) -> bool:
        """d_mu of the spacetime component ``data[s]`` (every internal
        component) into ``out``; False along an axis of extent 1, where it
        is exact zeros."""
        if mu == 0 and isinstance(self.grid, Window):
            raise FormFieldError(
                "d/dt of a field on a t window reads slices outside it; "
                "differentiate a RingSlice")
        if self.data.shape[2 + mu] == 1:
            return False
        diff_axis(self.data[s], 1 + mu, self.grid.spacing, out=out)
        return True


@dataclass(frozen=True)
class RingSlice(FormField):
    """One t slice of a form, on a one-slice window, whose neighbours sit
    in a ring (an array or list): ``ring[i % len(ring)]`` holds slice i,
    components first, for every slice i within two of this one.  ``ext_d``
    takes d/dt from it with the stencil of :func:`~pcgrav.grid.diff_axis`."""
    ring: np.ndarray | list

    @classmethod
    def of(cls, ring, grid: Grid4, t: int, degree: int,
           internal: int) -> "RingSlice":
        return cls(grid.window(t), degree, internal,
                   ring[t % len(ring)][:, :, None], ring)

    def _derivative(self, s, mu, out):
        if mu:
            return super()._derivative(s, mu, out)
        # one internal component at a time: its five slices stay in cache
        for c, dst in enumerate(out):
            diff_ring([slot[s, c] for slot in self.ring], self.grid.t,
                      self.grid.grid.points, self.grid.spacing, dst[0])
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


def live_components(data: np.ndarray) -> np.ndarray:
    """Which components (leading axes) are not zero at every node.

    The first node decides most components; only those zero there are
    scanned, each once.
    """
    # an array even when data has no component axis and live is 0-d
    live = np.asarray(data[..., 0, 0, 0, 0] != 0.0)
    for c in np.argwhere(~live):
        live[tuple(c)] = np.any(data[tuple(c)] != 0.0)
    return live


def zeros(grid: Grid4, degree: int, internal: int) -> FormField:
    """The zero field, stored with extent 1 on every grid axis; no
    component is live."""
    shape = (len(LAMBDA_BASES[degree]), INTERNAL_DIMS[internal], 1, 1, 1, 1)
    return FormField(grid, degree, internal, np.zeros(shape),
                     _live=np.zeros(shape[:2], dtype=bool))


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
    the listed output components, each with coefficient +1 or -1.
    """
    internal, k_out = _internal_entries(ka, kb, rule)
    groups = {}
    for i, j, k, s in merge_table(pa, pb):
        for u, v, m, c in internal:
            groups.setdefault((i, u, j, v), []).append((k, m, float(s * c)))
    plan = tuple((i, u, j, v, tuple(outs))
                 for (i, u, j, v), outs in groups.items())
    return k_out, plan


def _aligned_empty(shape) -> np.ndarray:
    """Uninitialised floats on a 64-byte line: vector stores split none."""
    buf = np.empty(np.prod(shape, dtype=int) + 8)
    return buf[-buf.ctypes.data % 64 // 8:][:buf.size - 8].reshape(shape)


def wedge(a: FormField, b: FormField, rule: str = "wedge") -> FormField:
    """Graded wedge on spacetime indices with the named internal pairing.

    rule="wedge": internal exterior product (scalars multiply through);
    rule="bracket": so(3,1) commutator, both internals Lambda^2;
    rule="action": so(3,1) representation of the first factor's Lambda^2
    values on the second factor's internal space.

    Only products of live components (``FormField.live``) are computed:
    the others contribute exact zeros.  The output components that get a
    term are the live set of the result, and the rest are 0.0.
    """
    if a.grid != b.grid:
        raise FormFieldError("fields on different grids")
    if a.degree + b.degree > 4:
        raise FormFieldError("spacetime degree overflow")
    k_out, plan = _wedge_plan(a.degree, a.internal, b.degree, b.internal, rule)
    p_out = a.degree + b.degree
    shape = np.broadcast_shapes(a.data.shape[2:], b.data.shape[2:])
    live_a, live_b = a.live, b.live
    # each output component's first term is written as 0.0 + term, the
    # bits that adding it to zeros gives; one with no term is zeros
    written = set()
    steps = []
    for i, u, j, v, outs in plan:
        if live_a[i, u] and live_b[j, v]:
            marked = []
            for k, m, c in outs:
                add = np.add if c > 0 else np.subtract
                marked.append((k, m, add, (k, m) not in written))
                written.add((k, m))
            steps.append((i, u, j, v, marked))
    out_shape = (len(LAMBDA_BASES[p_out]), INTERNAL_DIMS[k_out]) + shape
    live = np.zeros(out_shape[:2], dtype=bool)
    for k, m in written:
        live[k, m] = True
    out = np.empty(out_shape)
    out[~live] = 0.0
    prod = _aligned_empty(shape[1:])
    # one t slice at a time, so a slice's operands stay in cache; an
    # operand of t extent 1 reads its single slice
    for t in range(shape[0]):
        a_t = a.data[:, :, min(t, a.data.shape[2] - 1)]
        b_t = b.data[:, :, min(t, b.data.shape[2] - 1)]
        out_t = out[:, :, t]
        for i, u, j, v, outs in steps:
            np.multiply(a_t[i, u], b_t[j, v], out=prod)
            for k, m, add, first in outs:
                dst = out_t[k, m]
                add(0.0 if first else dst, prod, out=dst)
    return FormField(a.grid, p_out, k_out, out, _live=live)


def form_dgla_bracket(a: FormField, b: FormField) -> FormField:
    """Forms-dgla bracket: spacetime wedge with the so(3,1) commutator;
    both operands take Lambda^2 values."""
    return wedge(a, b, rule="bracket")


def ext_d(a: FormField) -> FormField:
    """Finite-difference exterior derivative (4th order interior stencils).

    Derivatives along a grid axis of extent 1 are exact zeros and skipped.
    For each target, the first live term is differentiated straight into
    the output (negated in place if its sign is odd), the later ones into a
    buffer and then added in order, all internal components at once.  A
    target with no live term is 0.0.  Against adding every term to zeros,
    only the sign of an exact zero can differ.  ``a`` is a field on the
    grid or a :class:`RingSlice`.
    """
    if a.degree >= 4:
        raise FormFieldError("cannot raise degree above 4")
    p = a.degree
    targets = LAMBDA_BASES[p + 1]
    target_shape = (INTERNAL_DIMS[a.internal],) + a.data.shape[2:]
    out = np.empty((len(targets),) + target_shape)
    term = np.empty(target_shape)
    for acc, target in zip(out, targets):
        first = True
        for m, mu in enumerate(target):
            source = _INDEX[p][target[:m] + target[m + 1:]]
            if not a._derivative(source, mu, acc if first else term):
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
        raise FormFieldError("covariant differential not defined on "
                             + INTERNAL_TAGS[a.internal])
    total = wedge(omega, a, rule="action").data.copy()
    d = ext_d(a)
    return d._like(np.add(d.data, total, out=total))


def curvature(omega: FormField) -> FormField:
    """F = d omega + (1/2)[omega, omega]."""
    total = form_dgla_bracket(omega, omega).data * 0.5
    d = ext_d(omega)
    return d._like(np.add(d.data, total, out=total))


def trace4(a: FormField) -> FormField:
    """Contract Lambda^4 values with eps (eps_0123 = +1, no raising)."""
    if a.degree != 4 or a.internal != 4:
        raise FormFieldError("trace needs a Lambda^4-valued 4-form")
    return FormField(a.grid, 4, 0, a.data)


def integrate(a: FormField) -> float:
    """Quadrature of a scalar 4-form's single component over the box."""
    if a.degree != 4 or a.internal != 0:
        raise FormFieldError("integrate needs a scalar-valued 4-form")
    return integrate_samples(a.data[0, 0], a.grid)


# ---------------------------------------------------------------------------
# Tetrads, metrics, connections
# ---------------------------------------------------------------------------

DEGENERACY_THRESHOLD = 1e-8


@dataclass(frozen=True)
class MetricField(_Samples):
    grid: Grid4
    data: np.ndarray  # (4, 4) + grid extents, symmetric in the leading axes

    def __post_init__(self):
        _check_shape(self.data, (4, 4), self.grid)


def tetrad_field(grid: Grid4, data: np.ndarray, live=None) -> FormField:
    """V-valued 1-form e^a_mu = data[mu, a] with live set ``live`` (None:
    scanned), checked nondegenerate."""
    e = FormField(grid, 1, 1, data, _live=live)
    check_nondegenerate(e)
    return e


def tetrad_determinants(e: FormField) -> np.ndarray:
    """det e at every node: (e00 e11)(e22 e33) for a diagonal live set with
    each diagonal entry 0.0 or within 1e+-150 in magnitude, so each pair is
    normal or zero: det to a few ulp where det is normal, far below the
    threshold where it is not.  ``np.linalg.det`` for any other tetrad."""
    diagonal = [e.data[m, m] for m in range(4)]
    if not (e.live & ~np.eye(4, dtype=bool)).any() and all(
            np.all((a <= 1e150) & ((a >= 1e-150) | (a == 0.0)))
            for a in map(np.abs, diagonal)):
        return (diagonal[0] * diagonal[1]) * (diagonal[2] * diagonal[3])
    # a NaN sample gives a NaN determinant, which the caller reports
    with np.errstate(invalid="ignore"):
        return np.linalg.det(np.moveaxis(e.data, (0, 1), (-2, -1)))


def check_nondegenerate(e: FormField) -> None:
    dets = np.abs(tetrad_determinants(e))
    bad = ~(dets > DEGENERACY_THRESHOLD)  # NaN counts as degenerate
    if bad.any():
        # along an axis of extent 1 the field is the same at every node;
        # index 0 names a real one (on a window, its own slice)
        node = np.unravel_index(np.argmax(bad), bad.shape)
        coords = [float(e.grid.coordinate(mu).flat[i])
                  for mu, i in enumerate(node)]
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

