"""Vector-valued differential forms on a 4D grid.

A :class:`FormField` is a spacetime p-form (p = 0..4) taking values in an
internal antisymmetric power Lambda^k V of the 4-dim reference space V
(k = 0 is a scalar, k = 1 is V itself, k = 2 carries the so(3,1) bracket).
Components are indexed component-major, on strictly increasing
multi-indices for both the spacetime and the internal slots:

    data[S, I, t, x, y, z]   S over LAMBDA_BASES[p], I over LAMBDA_BASES[k]

Each grid axis has extent N or 1: a field that does not depend on a
coordinate (a static field on t) stores one node along it, and products,
sums and norms broadcast over that axis.  A field's max-norm
(:meth:`FormField.region_norm`) runs outside the excised ball its grid
carries.

A field stores only the components that may be nonzero, ``live``, each a
contiguous node array of its ``stack``; the storage rule, who writes the
live sets and who may read the dense ``data`` are in docs/conventions.md,
"Live components".

A field may also live on a :class:`~pcgrav.grid.Window`, one t slice.
``wedge`` is pointwise and runs on one as on the grid, but d/dt needs the
slices around, so ``ext_d`` refuses a window field unless it is a
:class:`RingSlice`, which takes d/dt from a ring of its neighbours with
the stencils of the grid.  The Leibniz ladder streams t this way, and so
do the boost residuals of static fields in ``scenarios`` and, in radius
mode "4d", every coupling term.
``wedge`` and ``ext_d`` allocate their own results and run in the calling
thread, in one fixed order of operations; the only state they keep between
calls is ``wedge``'s cache of products per pair of live sets, a function
of its key.  So results are the same bits whichever thread calls them.  ``cov_d`` and
``curvature`` sum into the stack of a term that has every live component
of the sum, else into a new one.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
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
    """Node samples stored as their live components (docs/conventions.md,
    "Live components"): ``stack``, shape ``(n_live,) + extents``, in
    row-major component order, and ``live``, the mask over the component
    axes.  Every component outside ``live`` is exactly 0.0.

    Built from dense ``data`` with a declared ``_live`` (None: scanned,
    :func:`live_components`), or from a ``stack`` and its ``_live``; given
    both, ``data`` is used.  ``.data`` is the dense array, built on each
    read.
    """
    stack: np.ndarray = field(default=None, kw_only=True, repr=False,
                              compare=False)
    _live: np.ndarray = field(default=None, kw_only=True, repr=False,
                              compare=False)

    def __post_init__(self, data):
        leading = self._components()
        if data is not None:
            _check_shape(data, leading, self.grid)
            stack, live = _stack_of(data, self._live)
            object.__setattr__(self, "stack", stack)
            object.__setattr__(self, "_live", live)
        elif self._live.shape != leading:
            raise FormFieldError(f"live set of shape {self._live.shape}, "
                                 f"expected {leading}")
        _check_shape(self.stack, (int(self._live.sum()),), self.grid)

    @property
    def live(self) -> np.ndarray:
        """Which components (leading axes) may be nonzero: every other one
        is exactly 0.0 at every node."""
        return self._live

    @property
    def data(self) -> np.ndarray:
        """The dense samples, components leading (:func:`dense`)."""
        return dense(self.stack, self.live)

    def max_abs(self) -> float:
        return float(np.abs(self.stack).max()) if len(self.stack) else 0.0

    def region_norm(self) -> float:
        """Max |component| outside the grid's ball, away from box faces.

        Only the live components are read; with none live, zeros of the
        field's extents give the 0.0 (and the warning of an empty region)."""
        return region_max(self.stack if len(self.stack) else
                          np.broadcast_to(0.0, (1,) + self.stack.shape[1:]),
                          self.grid)


def stack_rows(live: np.ndarray) -> np.ndarray:
    """The row of each component in a stack of ``live``'s components, -1
    for a dead one."""
    return np.where(live, np.cumsum(live).reshape(live.shape) - 1, -1)


def _stack_of(data: np.ndarray, live) -> tuple:
    """The stack of ``data``'s live components and the live set, ``live``
    or a scan: a view when every component is live, else a gather."""
    live = live_components(data) if live is None else np.asarray(live)
    return (data.reshape((live.size,) + data.shape[live.ndim:])
            if live.all() else data[live]), live


def dense(stack: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Components ``live`` set to ``stack``'s rows, every other one 0.0: a
    view of the stack when every component is live."""
    if live.all():
        return stack.reshape(live.shape + stack.shape[1:])
    out = np.zeros(live.shape + stack.shape[1:])
    out[live] = stack
    return out


def stacked(comps: dict, leading: tuple) -> dict:
    """The ``stack`` and ``_live`` arguments of a field of component shape
    ``leading`` whose nonzero components are ``comps``, {index: samples};
    the samples broadcast to one shape."""
    live = np.zeros(leading, dtype=bool)
    for index in comps:
        live[index] = True
    return {"stack": np.stack(np.broadcast_arrays(*map(
        comps.get, sorted(comps)))), "_live": live}


@dataclass(frozen=True)
class FormField(_Samples):
    grid: Grid4
    degree: int
    internal: int
    data: InitVar[np.ndarray] = None

    def _components(self) -> tuple:
        return len(LAMBDA_BASES[self.degree]), INTERNAL_DIMS[self.internal]

    def component(self, st_index=(), internal_index=()) -> np.ndarray:
        """Named component on the grid, e.g. component((0, 1), (2, 3));
        read-only zeros when it is dead."""
        row = stack_rows(self.live)[
            _INDEX[self.degree][tuple(st_index)],
            _INDEX[self.internal][tuple(internal_index)]]
        return (self.stack[row] if row >= 0
                else np.broadcast_to(0.0, self.stack.shape[1:]))

    def _with(self, stack, live) -> "FormField":
        """The field of this one's degrees stored as ``stack`` of
        ``live``."""
        return FormField(self.grid, self.degree, self.internal, stack=stack,
                         _live=live)

    def __add__(self, other):
        return _sum(self, other)

    def __sub__(self, other):
        return _sum(self, other, -1.0)

    def __mul__(self, scalar):
        return self._with(self.stack * float(scalar), self.live)

    __rmul__ = __mul__

    def _moves(self, mu: int) -> bool:
        """Whether d_mu is read from samples: not along an axis of extent
        1, where it is exact zeros."""
        if mu == 0 and isinstance(self.grid, Window):
            raise FormFieldError(
                "d/dt of a field on a t window reads slices outside it; "
                "differentiate a RingSlice")
        return self.stack.shape[1 + mu] > 1

    def _derivative(self, s: int, rows: slice, mu: int, out: np.ndarray):
        """d_mu of the live components of spacetime component ``s``, stack
        rows ``rows``, into ``out``."""
        diff_axis(self.stack[rows], 1 + mu, self.grid.spacing, out=out)


@dataclass(frozen=True)
class RingSlice(FormField):
    """One t slice of a form, on a one-slice window, whose neighbours sit
    in a ring (an array or list): ``ring[i % len(ring)]`` holds slice i,
    components first, for every slice i within two of this one.  ``ext_d``
    takes d/dt from it with the stencil of :func:`~pcgrav.grid.diff_axis`."""
    ring: np.ndarray | list = field(default=None, kw_only=True)

    @classmethod
    def of(cls, ring, grid: Grid4, t: int, degree: int,
           internal: int) -> "RingSlice":
        return cls(grid.window(t), degree, internal,
                   ring[t % len(ring)][:, :, None], ring=ring)

    def _moves(self, mu):
        return mu == 0 or super()._moves(mu)

    def _derivative(self, s, rows, mu, out):
        if mu:
            return super()._derivative(s, rows, mu, out)
        # one internal component at a time: its five slices stay in cache
        for c, dst in zip(np.flatnonzero(self.live[s]), out):
            diff_ring([slot[s, c] for slot in self.ring], self.grid.t,
                      self.grid.grid.points, self.grid.spacing, dst[0])


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
    """The zero field: no component is live."""
    return FormField(grid, degree, internal,
                     stack=np.empty((0, 1, 1, 1, 1)),
                     _live=np.zeros((len(LAMBDA_BASES[degree]),
                                     INTERNAL_DIMS[internal]), dtype=bool))


def _sum(a: FormField, b: FormField, scale=None,
         fresh=False) -> FormField:
    """a + b (b times ``scale`` first, when given), fields of one space,
    over the union of their live sets: a component live in both is
    fl(a + fl(b scale)), one live in one is that operand's, the bits of
    adding it to 0.0 but for the sign of an exact zero.  With ``fresh`` no
    one holds b, whose stack is scaled in place.  The sum goes into b's
    scaled copy or fresh stack when b has every live component and the
    sum's extents, else into a new array.
    """
    if (a.grid, a.degree, a.internal) != (b.grid, b.degree, b.internal):
        raise FormFieldError("fields live in different spaces")
    live, sb = a.live | b.live, b.stack
    if fresh:
        sb.setflags(write=True)
    if scale is not None:
        sb = np.multiply(sb, scale, out=sb if fresh else None)
    shape = np.broadcast_shapes(a.stack.shape[1:], sb.shape[1:])
    rows, in_b = stack_rows(live), stack_rows(b.live)
    if (sb.flags.writeable and np.array_equal(b.live, live)
            and sb.shape[1:] == shape):
        out = sb
    else:
        out = np.empty((len(rows[live]),) + shape)
        out[rows[b.live]] = sb
    for row, r, j in zip(a.stack, rows[a.live], in_b[a.live]):
        if j >= 0:
            np.add(row, out[r], out=out[r])
        else:
            out[r] = row
    return a._with(out, live)


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


@lru_cache(maxsize=256)
def _wedge_steps(pa: int, ka: int, pb: int, kb: int, rule: str,
                 live_a: bytes, live_b: bytes):
    """Internal degree, live set and products of a wedge of operands whose
    live sets are the mask bytes ``live_a`` and ``live_b``: per product of
    live components, (row of a, row of b, [(output row, np.add or
    np.subtract, first)]).  Each output component's first term is written
    as 0.0 + term, the bits that adding it to zeros gives."""
    k_out, plan = _wedge_plan(pa, ka, pb, kb, rule)
    rows_a, rows_b = (stack_rows(np.frombuffer(live, dtype=bool).reshape(
        len(LAMBDA_BASES[p]), INTERNAL_DIMS[k])) for p, k, live in (
            (pa, ka, live_a), (pb, kb, live_b)))
    written, steps = set(), []
    for i, u, j, v, outs in plan:
        if rows_a[i, u] >= 0 and rows_b[j, v] >= 0:
            steps.append((rows_a[i, u], rows_b[j, v], [
                ((k, m), np.add if c > 0 else np.subtract,
                 (k, m) not in written) for k, m, c in outs]))
            written.update((k, m) for k, m, _ in outs)
    live = np.zeros((len(LAMBDA_BASES[pa + pb]), INTERNAL_DIMS[k_out]),
                    dtype=bool)
    for k, m in written:
        live[k, m] = True
    live.setflags(write=False)
    rows = stack_rows(live)
    return k_out, live, [(ra, rb, [(int(rows[km]), add, first)
                                   for km, add, first in outs])
                         for ra, rb, outs in steps]


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
    term are the live set of the result, and only they are stored.
    """
    if a.grid != b.grid:
        raise FormFieldError("fields on different grids")
    if a.degree + b.degree > 4:
        raise FormFieldError("spacetime degree overflow")
    k_out, live, steps = _wedge_steps(a.degree, a.internal, b.degree,
                                      b.internal, rule, a.live.tobytes(),
                                      b.live.tobytes())
    shape = np.broadcast_shapes(a.stack.shape[1:], b.stack.shape[1:])
    out = np.empty((int(live.sum()),) + shape)
    prod = _aligned_empty(shape[1:])
    # one t slice at a time, so a slice's operands stay in cache; an
    # operand of t extent 1 reads its single slice
    for t in range(shape[0]):
        a_t = a.stack[:, min(t, a.stack.shape[1] - 1)]
        b_t = b.stack[:, min(t, b.stack.shape[1] - 1)]
        out_t = out[:, t]
        for ra, rb, outs in steps:
            np.multiply(a_t[ra], b_t[rb], out=prod)
            for r, add, first in outs:
                dst = out_t[r]
                add(0.0 if first else dst, prod, out=dst)
    return FormField(a.grid, a.degree + b.degree, k_out, stack=out,
                     _live=live)


def form_dgla_bracket(a: FormField, b: FormField) -> FormField:
    """Forms-dgla bracket: spacetime wedge with the so(3,1) commutator;
    both operands take Lambda^2 values."""
    return wedge(a, b, rule="bracket")


def ext_d(a: FormField) -> FormField:
    """Finite-difference exterior derivative (4th order interior stencils).

    Derivatives along a grid axis of extent 1 are exact zeros, and so are
    those of dead components: both are skipped.  A target component is
    live when it has a term left, and its terms go in order: the first is
    stored (negated if its sign is odd), the later ones added.  A term
    none of whose components has one yet is differentiated straight into
    the output, any other into a buffer.  Against adding every term to
    zeros, only the sign of an exact zero can differ.  ``a`` is a field
    on the grid or a :class:`RingSlice`.
    """
    if a.degree >= 4:
        raise FormFieldError("cannot raise degree above 4")
    p, source = a.degree, stack_rows(a.live)
    # each target's terms with a live source: (sign, axis, source, its
    # stack rows, its live internal components)
    plan = [[(m % 2, mu, s, slice(rows[0], rows[-1] + 1),
              np.flatnonzero(a.live[s]))
             for m, mu in enumerate(target)
             for s in [_INDEX[p][target[:m] + target[m + 1:]]]
             for rows in [source[s][a.live[s]]] if a._moves(mu) and len(rows)]
            for target in LAMBDA_BASES[p + 1]]
    live = np.array([np.any([a.live[s] for *_, s, _, _ in terms], axis=0)
                     if terms else np.zeros_like(a.live[0])
                     for terms in plan])
    extents = a.stack.shape[1:]
    out, rows = np.empty((int(live.sum()),) + extents), stack_rows(live)
    buf = np.empty((live.shape[1],) + extents)
    for k, terms in enumerate(plan):
        done = np.zeros(live.shape[1], dtype=bool)
        for odd, mu, s, src, comps in terms:
            dst, first = rows[k, comps], ~done[comps]
            block = (slice(dst[0], dst[-1] + 1)
                     if dst[-1] - dst[0] == len(dst) - 1 else None)
            if block is not None and first.all():
                a._derivative(s, src, mu, out[block])
                if odd:
                    np.negative(out[block], out=out[block])
            else:
                term = buf[:len(comps)]
                a._derivative(s, src, mu, term)
                add = np.subtract if odd else np.add
                if block is not None and not first.any():
                    add(out[block], term, out=out[block])
                else:
                    for r, row, new in zip(dst, term, first):
                        if new:
                            (np.negative if odd else np.positive)(
                                row, out=out[r])
                        else:
                            add(out[r], row, out=out[r])
            done[comps] = True
    return FormField(a.grid, p + 1, a.internal, stack=out, _live=live)


def cov_d(omega: FormField, a: FormField) -> FormField:
    """Covariant differential d a + rho(omega) ^ a for V or Lambda^2 values."""
    if omega.degree != 1 or omega.internal != 2:
        raise FormFieldError("connection must be a Lambda^2-valued 1-form")
    if a.internal not in (1, 2):
        raise FormFieldError("covariant differential not defined on "
                             + INTERNAL_TAGS[a.internal])
    return _sum(ext_d(a), wedge(omega, a, rule="action"), fresh=True)


def curvature(omega: FormField) -> FormField:
    """F = d omega + (1/2)[omega, omega]."""
    return _sum(ext_d(omega), form_dgla_bracket(omega, omega), 0.5,
                fresh=True)


def trace4(a: FormField) -> FormField:
    """Contract Lambda^4 values with eps (eps_0123 = +1, no raising)."""
    if a.degree != 4 or a.internal != 4:
        raise FormFieldError("trace needs a Lambda^4-valued 4-form")
    return FormField(a.grid, 4, 0, stack=a.stack, _live=a.live)


def integrate(a: FormField) -> float:
    """Quadrature of a scalar 4-form's single component over the box."""
    if a.degree != 4 or a.internal != 0:
        raise FormFieldError("integrate needs a scalar-valued 4-form")
    return integrate_samples(a.component((0, 1, 2, 3)), a.grid)


# ---------------------------------------------------------------------------
# Tetrads, metrics, connections
# ---------------------------------------------------------------------------

DEGENERACY_THRESHOLD = 1e-8


@dataclass(frozen=True)
class MetricField(_Samples):
    grid: Grid4
    data: InitVar[np.ndarray] = None  # (4, 4) + grid extents, symmetric

    def _components(self) -> tuple:
        return 4, 4


# the class defaults of the ``data`` init arguments would hide _Samples.data
del FormField.data, MetricField.data


def tetrad_field(grid: Grid4, data: np.ndarray = None,
                 **stored) -> FormField:
    """V-valued 1-form e^a_mu = data[mu, a], its live set scanned, or
    ``stored`` as ``stack=`` and ``_live=`` (:func:`stacked`); checked
    nondegenerate."""
    e = FormField(grid, 1, 1, data, **stored)
    check_nondegenerate(e)
    return e


def tetrad_determinants(e: FormField) -> np.ndarray:
    """det e at every node: (e00 e11)(e22 e33) for a diagonal live set with
    each diagonal entry 0.0 or within 1e+-150 in magnitude, so each pair is
    normal or zero: det to a few ulp where det is normal, far below the
    threshold where it is not.  ``np.linalg.det`` for any other tetrad."""
    diagonal = [e.component((m,), (m,)) for m in range(4)]
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

