"""Wedge algebra, exterior derivative, connections, and their oracles."""

import itertools
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pcgrav import fields as F
from pcgrav.algebras import so31_dgla
from pcgrav.conventions import (ETA_DIAG, J_MATS, LAMBDA2, LAMBDA_BASES,
                                RHO_ON_LAMBDA, SO31_STRUCTURE)
from pcgrav.geometry import SchwarzschildIsotropic, minkowski_tetrad
from pcgrav.grid import Grid4, diff_axis

GRID = Grid4(2.0, 9)
RNG = np.random.default_rng(42)


def random_form(grid, p, k, rng=RNG):
    shape = (len(LAMBDA_BASES[p]), F.INTERNAL_DIMS[k]) + grid.shape
    return F.FormField(grid, p, k, rng.normal(size=shape))


def scalar_form(grid, degree, components):
    """Scalar-valued p-form from {increasing multi-index: node samples}."""
    shape = np.broadcast_shapes((1, 1, 1, 1),
                                *(np.shape(v) for v in components.values()))
    out = np.zeros((len(LAMBDA_BASES[degree]), 1) + shape)
    for mi, samples in components.items():
        out[LAMBDA_BASES[degree].index(mi), 0] = samples
    return F.FormField(grid, degree, 0, out)


def coordinate_field(grid, mu, power=1):
    return np.broadcast_to(grid.coordinate(mu), grid.shape) ** power


# ---------------------------------------------------------------------------
# Conventions cross-checks (matrix commutators are the oracle)
# ---------------------------------------------------------------------------

def test_so31_structure_matches_matrix_commutators():
    for p in range(6):
        for q in range(6):
            comm = J_MATS[p] @ J_MATS[q] - J_MATS[q] @ J_MATS[p]
            recon = sum(int(SO31_STRUCTURE[p, q, s]) * J_MATS[s]
                        for s in range(6))
            assert np.array_equal(comm, recon), (p, q)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rho_on_lambda_is_a_representation(k):
    rho = RHO_ON_LAMBDA[k]
    for p in range(6):
        for q in range(6):
            # row convention: composition reverses the matrix product
            comm = rho[q] @ rho[p] - rho[p] @ rho[q]
            recon = sum(int(SO31_STRUCTURE[p, q, s]) * rho[s]
                        for s in range(6))
            assert np.array_equal(comm, recon), (k, p, q)


def test_graded_algebra_and_grid_share_so31_constants():
    lorentz = so31_dgla()
    for p in range(6):
        for q in range(6):
            vec = [0] * 6
            vec[p] = 1
            wec = [0] * 6
            wec[q] = 1
            out = lorentz.algebra.bracket_eval(vec, wec)
            assert [float(c) for c in out] == list(
                SO31_STRUCTURE[p, q].astype(float))


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_of_coordinate_one_forms():
    a = scalar_form(GRID, 1, {(0,): np.ones(GRID.shape)})
    b = scalar_form(GRID, 1, {(1,): np.ones(GRID.shape)})
    ab = F.wedge(a, b)
    assert np.all(ab.component((0, 1)) == 1.0)
    for pair in LAMBDA_BASES[2]:
        if pair != (0, 1):
            assert np.all(ab.component(pair) == 0.0)


@pytest.mark.parametrize("p,q", [(0, 0), (0, 2), (1, 1), (1, 2), (2, 2),
                                 (1, 3), (3, 1), (2, 1), (4, 0)])
def test_wedge_graded_commutativity_scalar_values(p, q):
    a, b = random_form(GRID, p, 0), random_form(GRID, q, 0)
    lhs = F.wedge(a, b)
    rhs = F.wedge(b, a)
    sign = (-1.0) ** (p * q)
    assert np.allclose(lhs.data, sign * rhs.data, atol=1e-12)


def test_identity_tetrad_self_wedge():
    # bilinearity forces 2 on matching increasing pairs (and the Lambda-term
    # normalization trace4(e^4) = 24 * volume below depends on it)
    e = minkowski_tetrad(GRID)
    ee = F.wedge(e, e)
    for st in LAMBDA_BASES[2]:
        for internal in LAMBDA_BASES[2]:
            expected = 2.0 if st == internal else 0.0
            assert np.all(ee.component(st, internal) == expected)


def test_internal_permutation_signs():
    # wedge four V-valued 0-forms: coefficient is the permutation sign
    def unit(a):
        data = np.zeros((1, 4) + GRID.shape)
        data[0, a] = 1.0
        return F.FormField(GRID, 0, 1, data)

    def quad(order):
        out = unit(order[0])
        for a in order[1:]:
            out = F.wedge(out, unit(a))
        return out.data[0, 0, 0, 0, 0, 0]

    assert quad((0, 1, 2, 3)) == 1.0
    assert quad((1, 0, 2, 3)) == -1.0
    assert quad((1, 0, 3, 2)) == 1.0
    assert quad((0, 1, 2, 2)) == 0.0


def test_trace4_normalization():
    e = minkowski_tetrad(GRID)
    ee = F.wedge(e, e)
    traced = F.trace4(F.wedge(ee, ee))
    assert np.all(traced.data == 24.0)
    with pytest.raises(F.FormFieldError):
        F.trace4(ee)


def test_wedge_degree_overflow():
    a = random_form(GRID, 3, 0)
    with pytest.raises(F.FormFieldError):
        F.wedge(a, a)


def test_every_wedge_plan_coefficient_is_plus_or_minus_one():
    # wedge adds or subtracts each product; a convention table with any
    # other coefficient needs a scaled product there
    coefficients = set()
    for rule in ("wedge", "bracket", "action"):
        for pa, ka, pb, kb in itertools.product(range(5), repeat=4):
            if pa + pb > 4:
                continue
            try:
                _, plan = F._wedge_plan(pa, ka, pb, kb, rule)
            except F.FormFieldError:
                continue
            coefficients.update(c for *_, outs in plan for _, _, c in outs)
    assert coefficients == {1.0, -1.0}


def whole_array_wedge(a, b, rule):
    """Reference: the product plan run over whole node arrays at once."""
    k_out, plan = F._wedge_plan(a.degree, a.internal, b.degree, b.internal,
                                rule)
    p_out = a.degree + b.degree
    shape = np.broadcast_shapes(a.data.shape[2:], b.data.shape[2:])
    a_live = F.live_components(a.data)
    b_live = F.live_components(b.data)
    out = np.zeros((len(LAMBDA_BASES[p_out]), F.INTERNAL_DIMS[k_out]) + shape)
    prod = np.empty(shape)
    for i, u, j, v, outs in plan:
        if not (a_live[i, u] and b_live[j, v]):
            continue
        np.multiply(a.data[i, u], b.data[j, v], out=prod)
        for k, m, c in outs:
            if c == 1.0:
                out[k, m] += prod
            elif c == -1.0:
                out[k, m] -= prod
            else:
                out[k, m] += c * prod
    return out


def on_workers(threads, kernel):
    """``kernel()`` on ``threads`` threads at once, one call each, on a pool
    of their own; a single call runs in the calling thread."""
    if threads == 1:
        return [kernel()]
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(lambda _: kernel(), range(threads)))


@pytest.mark.parametrize("rule,pa,ka,pb,kb", [
    ("wedge", 1, 1, 1, 1), ("wedge", 2, 0, 1, 2), ("wedge", 1, 2, 2, 1),
    ("bracket", 1, 2, 1, 2), ("bracket", 2, 2, 1, 2),
    ("action", 1, 2, 1, 1), ("action", 1, 2, 2, 2), ("action", 0, 2, 1, 3)])
@pytest.mark.parametrize("a_extents,b_extents", [
    ((9, 9, 9, 9), (9, 9, 9, 9)),
    ((1, 9, 9, 9), (9, 9, 9, 9)),       # static times time-dependent
    ((9, 9, 9, 9), (1, 9, 9, 9)),
    ((9, 1, 9, 9), (1, 9, 9, 9)),       # one operand constant along x
    ((1, 9, 1, 9), (1, 1, 1, 1))])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_wedge_matches_whole_array_products_bit_for_bit(
        rule, pa, ka, pb, kb, a_extents, b_extents, threads):
    rng = np.random.default_rng(7)
    grid = Grid4(2.0, 9)

    def form(p, k, extents):
        data = rng.normal(size=(len(LAMBDA_BASES[p]), F.INTERNAL_DIMS[k])
                          + extents)
        data[0, 0] = 0.0                  # a dead component is skipped
        return F.FormField(grid, p, k, data)

    a, b = form(pa, ka, a_extents), form(pb, kb, b_extents)
    want = whole_array_wedge(a, b, rule)
    for got in on_workers(threads, lambda: F.wedge(a, b, rule=rule).data):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def full_scan_live(data):
    """Reference: every node of every component compared with zero."""
    return np.any(data != 0.0, axis=(-4, -3, -2, -1))


def test_live_components_matches_full_scan():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(4, 6, 5, 5, 5, 5))
    data[0, 0] = 0.0                      # zero everywhere
    data[1, 2, 0] = 0.0                   # zero on the first t slice only
    data[2, 3] = 0.0
    data[2, 3, 3, 1, 2, 4] = np.nan       # a NaN in a later slice only
    data[3, 5, 1:] = 0.0                  # zero past the first slice
    live = F.live_components(data)
    assert np.array_equal(live, full_scan_live(data))
    assert not live[0, 0] and live[1, 2] and live[2, 3] and live[3, 5]
    static = data[:, :, :1]               # t extent 1
    assert np.array_equal(F.live_components(static), full_scan_live(static))
    # the flattened component axis that symmetry.axis_derivatives passes
    flat = data.reshape((-1,) + data.shape[-4:])
    assert np.array_equal(F.live_components(flat), full_scan_live(flat))


@pytest.mark.parametrize("extents, node", [
    ((1, 3, 3, 3), (0, 2, 1, 1)),       # found on the first t slice
    ((3, 3, 3, 3), (2, 1, 1, 1)),       # found by the whole-field scan
    ((1, 3, 3, 3), (0, 0, 0, 0))])      # found at the first node
def test_live_components_of_data_without_a_component_axis(extents, node):
    # live is 0-d
    data = np.zeros(extents)
    assert not F.live_components(data)
    data[node] = 1.0
    live = F.live_components(data)
    assert live.shape == () and live


# ---------------------------------------------------------------------------
# ext_d
# ---------------------------------------------------------------------------

def accumulated_ext_d(a):
    """Reference: every live term added in order to a zero-filled output."""
    p, h = a.degree, a.grid.spacing
    targets = LAMBDA_BASES[p + 1]
    out = np.zeros((len(targets), F.INTERNAL_DIMS[a.internal])
                   + a.data.shape[2:])
    for t, target in enumerate(targets):
        for m, mu in enumerate(target):
            if a.data.shape[2 + mu] == 1:
                continue
            source = target[:m] + target[m + 1:]
            term = diff_axis(a.data[F._INDEX[p][source]], 1 + mu, h)
            if m % 2:
                out[t] -= term
            else:
                out[t] += term
    return out


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("extents", [
    (9, 9, 9, 9),
    (1, 9, 9, 9),        # static: the first term of target (0, ...) is skipped
    (1, 9, 1, 9),
    (1, 1, 1, 1)])       # no live term at all
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_ext_d_matches_accumulated_reference_bit_for_bit(p, k, extents,
                                                         threads):
    rng = np.random.default_rng(100 * p + k)
    grid = Grid4(2.0, 9)
    data = rng.normal(size=(len(LAMBDA_BASES[p]), F.INTERNAL_DIMS[k])
                      + extents)
    a = F.FormField(grid, p, k, data)
    want = accumulated_ext_d(a)
    for got in on_workers(threads, lambda: F.ext_d(a).data):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_ext_d_of_partly_dead_fields_matches_the_reference(p, k):
    # with dead components a target's terms cover different internal
    # components, so some are first written by a later term, and a
    # target's components need not be adjacent rows of the result
    rng = np.random.default_rng(400 + 10 * p + k)
    grid = Grid4(2.0, 9)
    for extents in [(9, 9, 9, 9), (1, 9, 9, 9)] * 3:
        data = rng.normal(size=(len(LAMBDA_BASES[p]), F.INTERNAL_DIMS[k])
                          + extents)
        data[rng.random(data.shape[:2]) < 0.5] = 0.0
        a = F.FormField(grid, p, k, data)
        got, want = F.ext_d(a), accumulated_ext_d(a)
        assert np.array_equal(got.data, want)
        assert not np.any(F.live_components(want) & ~got.live)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_ring_slices_match_whole_fields_bit_for_bit(p):
    # ext_d of a RingSlice and wedge on one-slice windows give the t slices
    # of the whole-field results
    rng = np.random.default_rng(p)
    grid, n = Grid4(2.0, 9), 9
    a = F.FormField(grid, p, 2, rng.normal(
        size=(len(LAMBDA_BASES[p]), 6) + grid.shape))
    b = F.FormField(grid, 1, 2, rng.normal(size=(4, 6) + grid.shape))
    d_whole, bracket_whole = F.ext_d(a).data, F.wedge(a, b, "bracket").data
    ring = np.empty((5,) + a.data.shape[:2] + grid.shape[1:])
    for t in range(n):
        ring.fill(np.nan)                 # a slot it must not read is NaN
        for i in range(max(t - 2, 0), min(t + 3, n)):
            ring[i % 5] = a.data[:, :, i]
        a_t = F.RingSlice.of(ring, grid, t, p, 2)
        b_t = F.FormField(grid.window(t), 1, 2, b.data[:, :, t:t + 1])
        d_t = F.ext_d(a_t)
        assert d_t.grid == grid.window(t) and d_t.degree == p + 1
        assert np.array_equal(d_t.data[:, :, 0], d_whole[:, :, t])
        bracket_t = F.wedge(a_t, b_t, "bracket")
        assert np.array_equal(bracket_t.data[:, :, 0], bracket_whole[:, :, t])


def test_an_infinite_sample_of_a_static_field_warns_nowhere():
    # along the t axis of extent 1 diff_axis gives the documented NaN at
    # the infinite sample, and ext_d skips that axis; neither warns
    grid = Grid4(2.0, 9)
    data = np.ones((4, 4, 1) + grid.shape[1:])
    data[2, 1, 0, 4, 4, 4] = np.inf
    a = F.FormField(grid, 1, 1, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d_t = diff_axis(a.data, 2, grid.spacing)
        d_a = F.ext_d(a).data
    nan = np.isnan(d_t)
    assert nan[2, 1, 0, 4, 4, 4] and np.count_nonzero(nan) == 1
    assert not d_t[~nan].any()
    assert not np.isnan(d_a).any() and np.isinf(d_a).any()


def test_a_window_field_has_no_t_derivative_of_its_own():
    grid = Grid4(2.0, 9)
    data = np.random.default_rng(3).normal(size=(4, 6, 1) + grid.shape[1:])
    slice_field = F.FormField(grid.window(4), 1, 2, data)
    with pytest.raises(F.FormFieldError, match="RingSlice"):
        F.ext_d(slice_field)          # as a static field, d/dt would be 0
    with pytest.raises(F.FormFieldError, match="different grids"):
        F.wedge(slice_field, F.FormField(grid.window(5), 1, 2, data))
    with pytest.raises(F.FormFieldError, match="shape"):
        F.FormField(grid.window(4), 1, 2, np.zeros((4, 6, 3) + grid.shape[1:]))


def test_d_of_constant_vanishes():
    c = scalar_form(GRID, 0, {(): np.full(GRID.shape, 3.25)})
    assert F.ext_d(c).max_abs() == 0.0


def test_d_of_linear_one_form_is_exact():
    a = scalar_form(GRID, 1, {(1,): coordinate_field(GRID, 0)})
    da = F.ext_d(a)
    assert np.all(da.component((0, 1)) == 1.0)
    assert da.max_abs() == 1.0


def test_d_squared_vanishes_to_roundoff():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(4, 4))
    poly = sum(coeffs[m, n] * coordinate_field(GRID, m) *
               coordinate_field(GRID, n, 2) for m in range(4)
               for n in range(4))
    f = scalar_form(GRID, 0, {(): poly})
    assert F.ext_d(F.ext_d(f)).max_abs() <= 1e-10
    a = random_form(GRID, 1, 2)
    scale = a.max_abs() / GRID.spacing ** 2
    assert F.ext_d(F.ext_d(a)).max_abs() <= 1e-12 * scale


def test_d_exact_on_cubics_in_the_interior():
    f = scalar_form(GRID, 0, {(): coordinate_field(GRID, 2, 3)})
    df = F.ext_d(f)
    exact = 3.0 * coordinate_field(GRID, 2, 2)
    err = np.abs(df.component((2,)) - exact)
    assert err[:, :, 2:-2, :].max() < 1e-11


# ---------------------------------------------------------------------------
# forms-dgla bracket
# ---------------------------------------------------------------------------

def constant_lambda2_form(grid, p, vectors):
    """p-form with constant Lambda^2 value per listed spacetime component."""
    data = np.zeros((len(LAMBDA_BASES[p]), 6) + grid.shape)
    for st, vec in vectors.items():
        idx = F._INDEX[p][tuple(st)]
        data[idx] = np.asarray(vec, dtype=float)[:, None, None, None, None]
    return F.FormField(grid, p, 2, data)


def test_constant_bracket_reduces_to_so31_commutator():
    rng = np.random.default_rng(5)
    u = rng.integers(-2, 3, size=6).astype(float)
    v = rng.integers(-2, 3, size=6).astype(float)
    a = constant_lambda2_form(GRID, 0, {(): u})
    b = constant_lambda2_form(GRID, 0, {(): v})
    got = F.form_dgla_bracket(a, b).data[0, :, 0, 0, 0, 0]
    lorentz = so31_dgla()
    expected = [float(c) for c in lorentz.algebra.bracket_eval(list(u), list(v))]
    assert np.allclose(got, expected, atol=1e-12)


def test_even_degree_self_bracket_with_commuting_values_vanishes():
    profile = coordinate_field(GRID, 1, 2)
    vec = np.zeros(6)
    vec[0] = 1.0
    data = np.zeros((1, 6) + GRID.shape)
    data[0, 0] = profile
    a = F.FormField(GRID, 0, 2, data)
    assert F.form_dgla_bracket(a, a).max_abs() == 0.0


@pytest.mark.parametrize("internal", [0, 1, 3])
def test_bracket_refuses_values_outside_lambda2(internal):
    a, b = random_form(GRID, 1, 2), random_form(GRID, 1, internal)
    for left, right in ((a, b), (b, a)):
        with pytest.raises(F.FormFieldError, match="Lambda\\^2"):
            F.form_dgla_bracket(left, right)


def test_bracket_antisymmetry_on_one_forms():
    a, b = random_form(GRID, 1, 2), random_form(GRID, 1, 2)
    lhs = F.form_dgla_bracket(a, b)
    rhs = F.form_dgla_bracket(b, a)
    # odd spacetime degrees and antisymmetric internal bracket: [a,b] = +[b,a]
    assert np.allclose(lhs.data, rhs.data, atol=1e-12)


def leibniz_residual_norm(n):
    grid = Grid4(1.0, n)
    k = np.pi / 2.0
    rng = np.random.default_rng(11)

    def smooth():
        data = np.zeros((4, 6) + grid.shape)
        for s in range(4):
            for i in range(6):
                amp = rng.normal(size=3)
                data[s, i] = (amp[0] * np.sin(k * coordinate_field(grid, 0))
                              * np.cos(k * coordinate_field(grid, 1))
                              + amp[1] * np.cos(k * coordinate_field(grid, 2))
                              + amp[2] * np.sin(k * coordinate_field(grid, 3)))
        return F.FormField(grid, 1, 2, data)

    a, b = smooth(), smooth()
    lhs = F.ext_d(F.form_dgla_bracket(a, b))
    rhs = (F.form_dgla_bracket(F.ext_d(a), b)
           - F.form_dgla_bracket(a, F.ext_d(b)))
    return (lhs - rhs).max_abs()


def test_leibniz_residual_second_order():
    norms = [leibniz_residual_norm(n) for n in (9, 13, 17)]
    hs = [2.0 / (n - 1) for n in (9, 13, 17)]
    slope = np.polyfit(np.log(hs), np.log(norms), 1)[0]
    assert norms[0] > norms[-1]
    assert slope >= 1.7


# ---------------------------------------------------------------------------
# cov_d / curvature
# ---------------------------------------------------------------------------

def test_cov_d_with_zero_connection_is_ext_d():
    zero = F.zeros(GRID, 1, 2)
    a = random_form(GRID, 1, 1)
    assert np.allclose(F.cov_d(zero, a).data, F.ext_d(a).data, atol=0)


def test_cov_d_identity_tetrad_zero_connection_exact():
    assert F.cov_d(F.zeros(GRID, 1, 2), minkowski_tetrad(GRID)).max_abs() == 0.0


def test_cov_d_rejects_unsupported_values():
    with pytest.raises(F.FormFieldError):
        F.cov_d(F.zeros(GRID, 1, 2), random_form(GRID, 1, 0))


def test_curvature_of_zero_and_constant_connections():
    assert F.curvature(F.zeros(GRID, 1, 2)).max_abs() == 0.0
    vec = np.zeros(6)
    vec[3] = 2.0
    om = constant_lambda2_form(GRID, 1, {(m,): vec for m in range(4)})
    # constant so(3,1) value: d omega = 0 and [c, c] = 0
    assert F.curvature(om).max_abs() == 0.0


# ---------------------------------------------------------------------------
# tetrads and metrics
# ---------------------------------------------------------------------------

def test_metric_of_identity_tetrad_is_eta():
    g = F.metric_from_tetrad(minkowski_tetrad(GRID))
    for mu in range(4):
        for nu in range(4):
            expected = ETA_DIAG[mu] if mu == nu else 0.0
            assert np.all(g.data[mu, nu] == expected)
    assert F.lorentzian_signature_ok(g)


def test_metric_of_scaled_tetrad():
    data = np.zeros((4, 4) + GRID.shape)
    data[0, 0] = 2.0
    for i in range(1, 4):
        data[i, i] = 1.0
    g = F.metric_from_tetrad(F.tetrad_field(GRID, data))
    assert np.all(g.data[0, 0] == -4.0)
    assert np.all(g.data[1, 1] == 1.0)


def test_metric_invariant_under_internal_lorentz_rotation():
    schw = SchwarzschildIsotropic(0.5, core_radius=0.6)
    grid = Grid4(2.0, 9)
    e = schw.tetrad(grid)
    lam = 0.3 * np.sin(np.pi * coordinate_field(grid, 1) / 2.0)
    boost = J_MATS[0].astype(float)  # J_01
    rotated = np.einsum("ab,mb...->ma...", boost, e.data)
    twice = np.einsum("ab,mb...->ma...", boost, rotated)
    # exp(lam J01) e, truncated exactly via the 2x2 boost block identity
    data = e.data + lam * rotated + (np.cosh(lam) - 1.0) * twice \
        + (np.sinh(lam) - lam) * rotated
    g1 = F.metric_from_tetrad(F.FormField(grid, 1, 1, data))
    g0 = F.metric_from_tetrad(e)
    assert np.allclose(g0.data, g1.data, atol=1e-12)


def test_degenerate_tetrad_reports_node():
    data = np.zeros((4, 4) + GRID.shape)
    for mu in range(4):
        data[mu, mu] = 1.0
    data[:, :, 4, 4, 4, 4] = 0.0
    with pytest.raises(F.DegenerateTetradError, match=r"node \(4, 4, 4, 4\)"):
        F.tetrad_field(GRID, data)


def test_nan_tetrad_is_degenerate():
    data = np.zeros((4, 4) + GRID.shape)
    for mu in range(4):
        data[mu, mu] = 1.0
    data[1, 2, 4, 4, 4, 4] = np.nan
    # the error names the node; numpy's det warns of nothing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(F.DegenerateTetradError,
                           match=r"node \(4, 4, 4, 4\)"):
            F.tetrad_field(GRID, data)


def det_reference(e):
    with np.errstate(invalid="ignore", over="ignore"):
        return np.linalg.det(np.moveaxis(e.data, (0, 1), (-2, -1)))


def nondegenerate_verdict(e):
    """check_nondegenerate's error message, or None."""
    try:
        F.check_nondegenerate(e)
    except F.DegenerateTetradError as err:
        return str(err)
    return None


def node_of(message):
    return message and message.split(" (x")[0]


def diagonal_tetrads(rng):
    """Seeded diagonal tetrads: random signs, magnitudes over +-150
    decades, a zero on the diagonal, extent-1 axes and one-slice windows."""
    grid = Grid4(3.0, 7)
    for extents in [grid.shape, (1, 7, 7, 7), (1, 1, 1, 1), (7, 1, 7, 1)]:
        for decades in (0.5, 4.0, 150.0):
            data = np.zeros((4, 4) + extents)
            for m in range(4):
                data[m, m] = (rng.choice([-1.0, 1.0], size=extents)
                              * 10.0 ** rng.uniform(-decades, decades,
                                                    size=extents))
            yield F.FormField(grid, 1, 1, data)
            data = data.copy()
            data[2, 2].flat[rng.integers(data[2, 2].size)] = 0.0
            yield F.FormField(grid, 1, 1, data)
            for t in (0, 3):
                window = grid.window(t)
                yield F.FormField(window, 1, 1,
                                  data[:, :, t:t + 1] if extents[0] > 1
                                  else data)


def test_diagonal_determinant_matches_linalg_det():
    rng = np.random.default_rng(3030)
    products = degenerate = 0
    for e in diagonal_tetrads(rng):
        assert not (e.live & ~np.eye(4, dtype=bool)).any()
        with np.errstate(over="ignore"):
            got = F.tetrad_determinants(e)
        want = det_reference(e)
        assert got.shape == want.shape
        # 3 digits wherever the determinant is a normal number
        np.testing.assert_allclose(np.abs(got), np.abs(want), rtol=1e-3,
                                   atol=np.finfo(float).tiny)
        assert np.array_equal(np.abs(got) > F.DEGENERACY_THRESHOLD,
                              np.abs(want) > F.DEGENERACY_THRESHOLD)
        # a dense live set sends the same samples through np.linalg.det
        reference = F.FormField(e.grid, 1, 1, e.data,
                                _live=np.ones((4, 4), dtype=bool))
        with np.errstate(over="ignore"):
            verdicts = [nondegenerate_verdict(f) for f in (e, reference)]
        assert node_of(verdicts[0]) == node_of(verdicts[1])
        products += not np.array_equal(got, want)
        degenerate += verdicts[0] is not None
    # the diagonal path ran, and found the zeros and the tiny products
    assert products and degenerate


def test_other_tetrads_keep_linalg_det_bits():
    rng = np.random.default_rng(3031)
    grid = Grid4(3.0, 7)
    diagonal = np.zeros((4, 4) + grid.shape)
    for m in range(4):
        diagonal[m, m] = rng.uniform(0.5, 2.0, size=grid.shape)
    dense = rng.normal(size=(4, 4) + grid.shape)
    off = diagonal.copy()
    off[1, 2] = rng.normal(size=grid.shape)
    swapped = diagonal[[1, 0, 2, 3]]
    cases = [dense, off, swapped]
    for value in (np.nan, np.inf, -np.inf, 1e151, 1e-151):
        planted = diagonal.copy()
        planted[3, 3, 2, 3, 4, 5] = value
        cases.append(planted)
    for data in cases:
        e = F.FormField(grid, 1, 1, data)
        with np.errstate(over="ignore", under="ignore"):
            got = F.tetrad_determinants(e)
        want = det_reference(e)
        assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# Levi-Civita connection
# ---------------------------------------------------------------------------

def test_levi_civita_identity_tetrad_is_zero():
    assert F.levi_civita_connection(minkowski_tetrad(GRID)).max_abs() == 0.0


def test_levi_civita_matches_closed_form_for_axial_scaling():
    grid = Grid4(2.0, 9)
    f = 2.0 + 0.25 * coordinate_field(grid, 1)
    data = np.zeros((4, 4) + grid.shape)
    for mu in range(4):
        data[mu, mu] = f
    om = F.levi_civita_connection(F.tetrad_field(grid, data))
    ratio = 0.25 / f
    expected = np.zeros((4, 6) + grid.shape)
    for p, (fa, fb) in enumerate(LAMBDA2):
        for mu in range(4):
            val = 0.0
            if fb == 1 and mu == fa:
                val += ETA_DIAG[fa]
            if fa == 1 and mu == fb:
                val -= ETA_DIAG[fb]
            if val:
                expected[mu, p] = ETA_DIAG[fa] * ETA_DIAG[fb] * val * ratio
    assert np.abs(om.data - expected).max() < 1e-14


def test_levi_civita_torsion_vanishes_by_construction():
    schw = SchwarzschildIsotropic(0.5, core_radius=0.8)
    grid = Grid4(6.0, 13)
    e = schw.tetrad(grid)
    om = F.levi_civita_connection(e)
    scale = max(1.0, om.max_abs()) / grid.spacing
    assert F.cov_d(om, e).max_abs() <= 1e-12 * scale


def test_levi_civita_converges_to_closed_form_connection():
    schw = SchwarzschildIsotropic(0.5, core_radius=0.8)
    errs = []
    for n in (13, 17, 25):
        grid = Grid4(6.0, n, inner_radius=2.0, radius_mode="spatial")
        om_fd = F.levi_civita_connection(schw.tetrad(grid))
        om_exact = schw.connection(grid)
        errs.append((om_fd - om_exact).region_norm())
    hs = [12.0 / (n - 1) for n in (13, 17, 25)]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.7


def test_curvature_of_identity_levi_civita_is_zero():
    e = minkowski_tetrad(GRID)
    assert F.curvature(F.levi_civita_connection(e)).max_abs() == 0.0

