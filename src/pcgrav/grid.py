"""Uniform 4D box grid, finite-difference stencils, and quadrature.

The grid covers ``[-L, L]^4`` with N nodes per axis (N odd), node
coordinates ``x_i = -L + i h`` with ``h = 2L/(N-1)``, axis order
``(x^0, x^1, x^2, x^3) = (t, x, y, z)``.

First derivatives use the 4th-order central 5-point stencil at interior
nodes and 2nd-order 3-point stencils within two nodes of a box face
(one-sided at the face itself).  The interior stencil reads flat offsets
of one C-contiguous array, so every axis is read in contiguous runs; the
face stencils overwrite the nodes it computes across lines, and the
stencils allocate their own temporaries.  Integrals are
product-trapezoid sums accumulated with exact compensated summation
(math.fsum) in a fixed node order, so results are bit-reproducible
regardless of threading.

Node samples have extent N or 1 on each grid axis: a field that does not
depend on a coordinate stores one node along it and broadcasts.  Stencils
give exact zeros along such an axis (NaN where a sample is not finite), and
norms and integrals equal those of the broadcast samples.

A grid carries the ball its fields' norms excise: ``inner_radius``, over
all four axes (``radius_mode`` "4d") or the spatial three ("spatial").
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Nodes within this many of a box face use the lower-order stencils; norms
# leave them out.
FACE_LAYERS = 2

# Nodes per chunk of the interior stencil (fewer than twice this, and a
# block of fewer is one chunk): its operands stay in cache.
STENCIL_CHUNK = 1 << 15

RADIUS_MODES = ("4d", "spatial")


@dataclass(frozen=True)
class Grid4:
    half_width: float
    points: int
    inner_radius: float = 0.0
    radius_mode: str = "4d"

    def __post_init__(self):
        if self.points < 5 or self.points % 2 == 0:
            raise ValueError("points per axis must be odd and >= 5")
        if self.inner_radius < 0:
            raise ValueError("inner radius must be nonnegative")
        _check_mode(self.radius_mode)
        if self.half_width <= 0:
            raise ValueError("half width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    @property
    def shape(self):
        return (self.points,) * 4

    def axis_coordinates(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points)

    def coordinate(self, mu: int) -> np.ndarray:
        """x^mu broadcast over the grid, shape (N,N,N,N) via views."""
        c = self.axis_coordinates()
        shape = [1, 1, 1, 1]
        shape[mu] = self.points
        return c.reshape(shape)

    def radius(self, mode: str) -> np.ndarray:
        """Euclidean radius, either all four axes or the spatial three.

        The spatial radius has extent 1 on t: shape (1, N, N, N).
        """
        _check_mode(mode)
        axes = range(4) if mode == "4d" else range(1, 4)
        return np.sqrt(sum(self.coordinate(mu) ** 2 for mu in axes))

    def region_mask(self) -> np.ndarray:
        """Nodes outside the excised ball (:func:`held`)."""
        return held(self, self, lambda: self.radius(self.radius_mode)
                    > self.inner_radius)

    def norm_mask(self, shape: tuple) -> np.ndarray:
        """Region of the max-norms of samples of ``shape``, outside the ball
        and off the faces (:func:`held`), reduced with ``any`` over the axes
        where ``shape`` has extent 1.  The interior mask has extent N only
        where the samples or the region do."""
        def build():
            region = self.region_mask()
            mask = region & self.interior_mask(
                tuple(map(max, region.shape, shape)))
            static = tuple(ax for ax, n in enumerate(shape) if n == 1)
            return mask.any(axis=static, keepdims=True) if static else mask
        return held(self, (self, shape), build)

    def interior_mask(self, shape: tuple = None) -> np.ndarray:
        """Nodes at least ``FACE_LAYERS`` nodes away from every box face,
        on samples of ``shape`` (the grid's by default): one mask per axis,
        broadcast, where an axis of extent 1 is one inside node."""
        k = np.arange(self.points)
        t, x, y, z = np.meshgrid(*(
            np.minimum(k, k[::-1]) >= FACE_LAYERS if n > 1 else [True]
            for n in shape or self.shape), indexing="ij", sparse=True)
        return t & x & y & z

    def window(self, t: int) -> "Window":
        """The t slice ``t`` of this grid."""
        return Window(self, t)


@dataclass(frozen=True)
class Window:
    """One t slice of a grid, every node of x, y and z.

    Samples on a window have extent 1 along t, and a t stencil at its
    slice reads slices outside it: fields on a window are pieces of a field
    on the grid, not fields of their own.  Pointwise work runs on a window
    as on the grid: :func:`restrict` cuts a grid field down to it,
    :meth:`coordinate` gives its coordinates, and :func:`region_max` reads
    the row of the grid's norm mask.  The Leibniz ladder and the
    boost residuals of static fields stream t this way.
    """
    grid: Grid4
    t: int

    def __post_init__(self):
        if not 0 <= self.t < self.grid.points:
            raise ValueError(f"window t = {self.t} is not inside "
                             f"t = 0..{self.grid.points - 1}")

    @property
    def spacing(self) -> float:
        return self.grid.spacing

    @property
    def shape(self):
        return (1,) + self.grid.shape[1:]

    def coordinate(self, mu: int) -> np.ndarray:
        """x^mu broadcast over the window, as :meth:`Grid4.coordinate`."""
        return restrict(self.grid.coordinate(mu), self)


def restrict(values: np.ndarray, where) -> np.ndarray:
    """Node samples of a grid on ``where``: the grid itself, or a window of
    it.  On a window an axis t of extent N (the last four axes are the
    grid) is sliced to the window's row, and one of extent 1 is kept."""
    if isinstance(where, Window) and values.shape[-4] != 1:
        return values[..., where.t:where.t + 1, :, :, :]
    return values


def _check_mode(mode: str) -> None:
    if mode not in RADIUS_MODES:
        raise ValueError(
            f"radius mode must be '4d' or 'spatial', got {mode!r}")


@lru_cache(maxsize=1)
def _lattice_store(half_width: float, points: int) -> dict:
    """The one store of grid-derived arrays (:func:`held`): every grid on
    the lattice of ``half_width`` and ``points`` shares it, whatever ball it
    excises, until the first use of another lattice drops it."""
    return {}


def held(grid: Grid4, key, build):
    """``build()``'s array, or tuple of arrays, for ``key`` (what it depends
    on besides the grid's lattice): built on first use, made read-only and
    held in the lattice's store (:func:`_lattice_store`)."""
    store = _lattice_store(grid.half_width, grid.points)
    if key not in store:
        store[key] = value = build()
        for array in value if isinstance(value, tuple) else (value,):
            array.setflags(write=False)
    return store[key]


def _stencil(f, below: int, above: int, spacing: float, out: np.ndarray,
             tmp: np.ndarray) -> np.ndarray:
    """d/dx^mu at nodes with ``below``/``above`` nodes on each side along
    the axis; ``f(k)`` gives the samples k nodes along from them.

    The one copy of the stencils, each in a fixed order of operations:
    ((f0 - 8 f1) + 8 f3) - f4, then / 12h, at interior nodes; 3-point
    forms, then / 2h, within two nodes of a face.  ``tmp`` is scratch of
    the shape of ``out``.
    """
    h = spacing
    if below >= 2 and above >= 2:
        np.multiply(8.0, f(-1), out=tmp)
        np.subtract(f(-2), tmp, out=out)
        np.multiply(8.0, f(1), out=tmp)
        np.add(out, tmp, out=out)
        np.subtract(out, f(2), out=out)
        return np.divide(out, 12.0 * h, out=out)
    if below == 0:
        np.multiply(-3.0, f(0), out=out)
        np.multiply(4.0, f(1), out=tmp)
        np.add(out, tmp, out=out)
        np.subtract(out, f(2), out=out)
    elif above == 0:
        np.multiply(3.0, f(0), out=out)
        np.multiply(4.0, f(-1), out=tmp)
        np.subtract(out, tmp, out=out)
        np.add(out, f(-2), out=out)
    else:
        np.subtract(f(1), f(-1), out=out)
    return np.divide(out, 2.0 * h, out=out)


def diff_axis(values: np.ndarray, axis: int, spacing: float,
              out: np.ndarray = None) -> np.ndarray:
    """d/dx^mu of node samples along ``axis``, the grid axis of x^mu.

    ``values`` is a float array of any rank and ``axis`` any index into
    it, negative too: component-leading arrays name the grid axis past
    their leading axes.  Along an axis of extent 1 the samples are
    constant: the result is exact zeros, and NaN where a sample is not
    finite, as the stencil gives on constant samples.

    The interior stencil runs on one C-contiguous array of ``values``, a
    copy only if ``values`` is not one (a strided, broadcast or transposed
    view).  The result goes to ``out`` if given (a C-contiguous float array
    of the shape of ``values``, not overlapping it) and is returned.
    """
    if out is None:
        out = np.empty(values.shape)
    elif out.shape != values.shape or not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous with the shape of values")
    if values.shape[axis] == 1:
        # inf - inf is the NaN documented above, not a fault to report
        with np.errstate(invalid="ignore"):
            return np.subtract(values, values, out=out)
    axis %= values.ndim
    values = np.ascontiguousarray(values)
    # flat node k's neighbours along the axis are k +- s and k +- 2s; the
    # interior stencil runs over the m nodes [2s, size - 2s) in equal chunks
    s = math.prod(values.shape[axis + 1:])
    m = values.size - 4 * s
    chunks = max(1, m // STENCIL_CHUNK)
    n = values.shape[axis]
    scratch = np.empty(max(-(-m // chunks), values.size // n))
    bounds = [2 * s + m * c // chunks for c in range(chunks + 1)]
    f, d = values.reshape(-1), out.reshape(-1)
    for k0, k1 in zip(bounds, bounds[1:]):
        _stencil(lambda k: f[k0 + k * s:k1 + k * s], 2, 2, spacing,
                 d[k0:k1], scratch[:k1 - k0])
    # nodes within two of a face along the axis read across lines above;
    # the face stencils overwrite them
    pre = (slice(None),) * axis
    layer = values.shape[:axis] + values.shape[axis + 1:]
    tmp = scratch[:values.size // n].reshape(layer)
    for j in (0, n - 1):
        _stencil(lambda k: values[pre + (j + k,)], j, n - 1 - j, spacing,
                 out[pre + (j,)], tmp)
    # the layers next to the faces, 1 and n - 2, in one call: their stencil
    # takes no scratch
    _stencil(lambda k: values[pre + (slice(1 + k, n - 1 + k, n - 3),)],
             1, 1, spacing, out[pre + (slice(1, n - 1, n - 3),)], None)
    return out


def diff_ring(ring: np.ndarray, t: int, points: int, spacing: float,
              out: np.ndarray) -> np.ndarray:
    """d/dt at t slice ``t`` of ``points`` from a ring of t slices.

    ``ring[i % len(ring)]`` holds slice i for every i within two of ``t``
    (and inside the grid).  The stencil and its order of operations are
    those of :func:`diff_axis` along t, so the result equals that row of
    it bit for bit.  The result goes to ``out`` (the shape of a slice) and
    is returned.
    """
    depth = len(ring)
    return _stencil(lambda k: ring[(t + k) % depth], t, points - 1 - t,
                    spacing, out, np.empty(out.shape))


def integrate_samples(values: np.ndarray, grid: Grid4) -> float:
    """Box quadrature of scalar node samples, exactly-rounded fixed-order sum.

    One ``math.fsum`` takes the products of the samples, broadcast over
    the grid, and the product-trapezoid weights ``((w_t w_x) w_y) w_z`` in
    node order, one t slice at a time: no whole-grid array or list.
    """
    w = np.full(grid.points, grid.spacing)
    w[0] = w[-1] = 0.5 * grid.spacing
    values = np.broadcast_to(values, grid.shape)
    return math.fsum(itertools.chain.from_iterable(
        (values[t] * (((w_t * w[:, None, None]) * w[:, None]) * w)).ravel()
        .tolist() for t, w_t in enumerate(w)))


def region_max(values, grid) -> float:
    """Max |component| over (outside the grid's ball) & (away from box faces).

    ``values`` is a sequence of component arrays of one shape, on the
    grid's four axes (an array with one leading component axis is such a
    sequence); the max runs over every component.  Along an axis of
    extent 1 the mask is reduced with ``any``, which gives the max of the
    broadcast samples exactly.  On a :class:`Window` the mask is its row
    of the grid's mask; a window outside the region gives 0.0, and
    warns only when the whole region is empty.  A NaN in any component
    makes the result NaN.
    """
    shape = values[0].shape
    if isinstance(grid, Window):
        full = grid.grid.norm_mask(grid.grid.shape[:1] + shape[1:])
        mask = restrict(full, grid)
    else:
        full = mask = grid.norm_mask(shape)
    if not mask.any():
        if not full.any():
            warnings.warn("norm region is empty", stacklevel=2)
        return 0.0
    return float(np.max([np.abs(c[mask]).max() for c in values]))
