"""Exact axiom checks, action construction/extraction, and their oracles."""

import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pcgrav import exact
from pcgrav.algebras import (abelian, closure_check, dgla_from_json,
                             poincare_algebra, poincare_coefficients,
                             poincare_dgla, so3, vector_representation_so3)
from pcgrav.conventions import ETA_DIAG, LAMBDA2, lorentz_generator
from pcgrav.graded import (ActionMap, Dgla, DglaMorphism, Differential,
                           GradedBasis, GradedLieAlgebra, StructureError,
                           _action_sum, adjoint_action, build_action_dgla,
                           check_action_map, check_dgla, check_exactness,
                           check_morphism, extract_action_map, zero_action)

Q = Fraction
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def basis_vec(dim, i, c=1):
    v = [Q(0)] * dim
    v[i] = Q(c)
    return v


# ---------------------------------------------------------------------------
# Oracles: matrix representations computed independently of the
# structure-constant tables under test.
# ---------------------------------------------------------------------------

def affine_iso31_matrices():
    """5x5 affine representation of the Poincare algebra, basis order P/J."""
    mats = []
    for c in range(4):
        m = np.zeros((5, 5), dtype=np.int64)
        m[c, 4] = 1
        mats.append(m)
    for a, b in LAMBDA2:
        m = np.zeros((5, 5), dtype=np.int64)
        m[:4, :4] = lorentz_generator(a, b)
        mats.append(m)
    return mats


def coefficients_from_affine(m):
    """Express a 5x5 affine matrix in the P/J basis (exact, with check)."""
    coeffs = [Q(int(m[c, 4])) for c in range(4)]
    block = m[:4, :4]
    for a, b in LAMBDA2:
        coeffs.append(Q(int(ETA_DIAG[b] * block[a, b])))
    recon = np.zeros((5, 5), dtype=np.int64)
    for c in range(4):
        recon[c, 4] = coeffs[c]
    for n, (a, b) in enumerate(LAMBDA2):
        recon[:4, :4] += int(coeffs[4 + n]) * lorentz_generator(a, b)
    assert np.array_equal(recon, m), "matrix is not in the Poincare span"
    return coeffs


def affine_iso3_matrices():
    """4x4 affine rep of iso(3), basis order (L1, L2, L3, e1, e2, e3)."""
    mats = []
    eps = np.zeros((3, 3, 3), dtype=np.int64)
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k], eps[j, i, k] = 1, -1
    for i in range(3):
        m = np.zeros((4, 4), dtype=np.int64)
        # column-vector convention: (L_i v)_a = eps_{i a b}... rotation about axis i
        for a in range(3):
            for b in range(3):
                m[a, b] = eps[i, b, a]  # so that m @ e_j = eps_ijk e_k
        mats.append(m)
    for j in range(3):
        m = np.zeros((4, 4), dtype=np.int64)
        m[j, 3] = 1
        mats.append(m)
    return mats


# ---------------------------------------------------------------------------
# bracket_eval
# ---------------------------------------------------------------------------

def test_so3_bracket_eps():
    a = so3().algebra
    out = a.bracket_eval(basis_vec(3, 0), basis_vec(3, 1))
    assert out == basis_vec(3, 2)
    out = a.bracket_eval(basis_vec(3, 2), basis_vec(3, 0))
    assert out == basis_vec(3, 1)


def test_even_degree_self_bracket_vanishes():
    a = poincare_algebra()
    rng = random.Random(7)
    for _ in range(5):
        x = [Q(rng.randint(-3, 3)) for _ in range(10)]
        assert all(c == 0 for c in a.bracket_eval(x, x))


def test_poincare_brackets_match_affine_representation():
    a = poincare_algebra()
    mats = affine_iso31_matrices()
    for i in range(10):
        for j in range(10):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            expected = coefficients_from_affine(comm)
            got = a.bracket_eval(basis_vec(10, i), basis_vec(10, j))
            assert got == expected, (a.basis.labels[i], a.basis.labels[j])


def test_bracket_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        so3().algebra.bracket_eval([1, 0], [0, 1, 0])


# ---------------------------------------------------------------------------
# check_dgla
# ---------------------------------------------------------------------------

def test_abelian_passes():
    assert check_dgla(abelian(("a", "b"))).passed


def test_so3_passes():
    assert check_dgla(so3()).passed


def test_poincare_passes():
    assert check_dgla(poincare_dgla()).passed


def test_perturbed_so3_reports_jacobi_witness():
    d = so3()
    brackets = {k: dict(v) for k, v in d.algebra.brackets.items()}
    brackets[(0, 1)][0] = Q(1)  # [L1, L2] = L3 + L1
    bad = Dgla(GradedLieAlgebra(d.basis, brackets))
    report = check_dgla(bad)
    assert not report.passed
    axioms = {v.axiom for v in report.violations}
    assert "jacobi" in axioms
    jac = next(v for v in report.violations if v.axiom == "jacobi")
    assert len(jac.witness) == 3


def test_odd_generator_square_is_legal():
    # deg e = 1, deg f = 2, [e, e] = f: graded antisymmetry allows this.
    basis = GradedBasis(("e", "f"), (1, 2))
    alg = GradedLieAlgebra(basis, {(0, 0): {1: Q(1)}})
    d = Dgla(alg, Differential({0: {1: Q(1)}}))  # d e = f
    assert check_dgla(d).passed


def test_wrong_degree_differential_is_flagged():
    basis = GradedBasis(("e", "f"), (0, 2))
    d = Dgla(GradedLieAlgebra(basis, {}), Differential({0: {1: Q(1)}}))
    report = check_dgla(d)
    assert any(v.axiom == "differential-degree" for v in report.violations)


# ---------------------------------------------------------------------------
# build_action_dgla / extract_action_map / adjoint_action
# ---------------------------------------------------------------------------

def test_iso3_semidirect_sum_matches_affine_oracle():
    s = build_action_dgla(vector_representation_so3())
    assert check_dgla(s.total).passed
    assert check_exactness(s).passed
    mats = affine_iso3_matrices()
    # oracle order (L1,L2,L3,e1,e2,e3) == total basis order (g block then h)
    for i in range(6):
        for j in range(6):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            got = s.total.algebra.bracket_eval(basis_vec(6, i),
                                               basis_vec(6, j))
            # express oracle commutator in the same basis
            expected = [Q(0)] * 6
            rot = comm[:3, :3]
            eps = np.zeros((3, 3, 3), dtype=np.int64)
            for a, b, c in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
                eps[a, b, c], eps[b, a, c] = 1, -1
            for k in range(3):
                # coefficient of L_k: rot == sum_k c_k (rotation matrix k)
                expected[k] = Q(int(rot[(k + 2) % 3, (k + 1) % 3]))
            for k in range(3):
                expected[3 + k] = Q(int(comm[k, 3]))
            assert got == expected, (i, j)


def test_zero_action_gives_direct_sum():
    g, h = so3(), abelian(("u", "v"))
    s = build_action_dgla(zero_action(g, h))
    for i in range(3):
        for j in range(2):
            assert s.total.algebra.bracket_basis(i, 3 + j) == {}
    assert extract_action_map(s) == zero_action(g, h)


def test_plus_variant_fails_antisymmetry_with_cross_witness():
    s = build_action_dgla(vector_representation_so3(), plus_variant=True)
    report = check_dgla(s.total)
    assert not report.passed
    witnesses = [v.witness for v in report.violations
                 if v.axiom == "antisymmetry"]
    assert witnesses, "expected an antisymmetry violation"
    assert any(w[0].startswith("g.") and w[1].startswith("h.")
               for w in witnesses), "witness should pair (X,0) with (0,w)"


def test_round_trip_on_iso3():
    alpha = vector_representation_so3()
    assert extract_action_map(build_action_dgla(alpha)) == alpha


def test_adjoint_action_so3_recovers_ad():
    g = so3()
    s = adjoint_action(g)
    assert check_dgla(s.total).passed
    assert check_exactness(s).passed
    alpha = extract_action_map(s)
    for i in range(3):
        for j in range(3):
            assert exact.matmul([basis_vec(3, j)], alpha.matrices[i])[0] == \
                g.algebra.bracket_eval(basis_vec(3, i), basis_vec(3, j))


def test_build_after_extract_reproduces_adjoint_structure():
    for d in (so3(), poincare_dgla(), tensor_dgla(SOLVABLE, 1),
              tensor_dgla(SOLVABLE, -1)):
        s = adjoint_action(d)
        rebuilt = build_action_dgla(extract_action_map(s))
        assert rebuilt.total.algebra.brackets == s.total.algebra.brackets
        assert rebuilt.total.differential.rows == s.total.differential.rows


def test_adjoint_action_abelian_is_abelian():
    s = adjoint_action(abelian(("a", "b")))
    assert s.total.algebra.brackets == {}
    assert check_dgla(s.total).passed


def test_adjoint_action_poincare_passes_all_axioms():
    s = adjoint_action(poincare_dgla())
    assert check_dgla(s.total).passed
    assert check_exactness(s).passed


def test_adjoint_action_with_differential_passes():
    basis = GradedBasis(("u", "v"), (0, 1))
    g = Dgla(GradedLieAlgebra(basis, {}), Differential({0: {1: Q(1)}}))
    assert check_dgla(g).passed
    s = adjoint_action(g)
    assert check_dgla(s.total).passed
    assert check_exactness(s).passed


def with_total(s, brackets=None, rows=None):
    """``s`` with its total's brackets or differential replaced, and its
    inject and project maps reading the new total."""
    total = Dgla(GradedLieAlgebra(
        s.total.basis,
        s.total.algebra.brackets if brackets is None else brackets),
        Differential(s.total.differential.rows if rows is None else rows))
    return replace(s, total=total, inject=replace(s.inject, target=total),
                   project=replace(s.project, source=total))


def test_extract_refuses_a_differential_from_g_into_h():
    # d(g.x) = h.u keeps every dgla axiom and the exact sequence, but no
    # action's sum has it: its differential is d_g (+) d_h
    h = Dgla(GradedLieAlgebra(GradedBasis(("u",), (1,)), {}))
    s = with_total(build_action_dgla(zero_action(abelian(("x",)), h)),
                   rows={0: {1: Q(1)}})
    assert check_dgla(s.total).passed and check_exactness(s).passed
    with pytest.raises(StructureError, match=re.escape(
            "differential at ('g.x',)")):
        extract_action_map(s)


def test_extract_refuses_the_plus_variant():
    s = build_action_dgla(vector_representation_so3(), plus_variant=True)
    assert check_exactness(s).passed
    with pytest.raises(StructureError, match=re.escape(
            "not the sum of an action: bracket at ('h.e1', 'g.L2')")):
        extract_action_map(s)


def test_extract_refuses_a_g_bracket_with_an_h_part():
    s = build_action_dgla(vector_representation_so3())
    brackets = {key: dict(row) for key, row in s.total.algebra.brackets.items()}
    brackets[(0, 1)][3] = Q(1)  # [g.L1, g.L2] = g.L3 + h.e1
    s = with_total(s, brackets=brackets)
    assert check_exactness(s).passed
    with pytest.raises(StructureError, match=re.escape(
            "bracket at ('g.L1', 'g.L2')")):
        extract_action_map(s)


def test_extract_refuses_a_cross_bracket_with_a_g_part():
    # project kills h, so the exact sequence already names it
    s = build_action_dgla(vector_representation_so3())
    brackets = {key: dict(row) for key, row in s.total.algebra.brackets.items()}
    brackets[(0, 4)][0] = Q(1)  # [g.L1, h.e2] = h.e3 + g.L1
    with pytest.raises(StructureError, match=re.escape(
            "project-morphism-bracket at ('g.L1', 'h.e2')")):
        extract_action_map(with_total(s, brackets=brackets))


def test_invalid_action_map_is_rejected_by_name():
    g, h = so3(), abelian(("e1", "e2", "e3"))
    mats = list(vector_representation_so3().matrices)
    mats[0] = exact.identity(3)  # not a Lie-map assignment
    with pytest.raises(StructureError, match="action-bracket"):
        build_action_dgla(ActionMap(g, h, tuple(mats)))


# ---------------------------------------------------------------------------
# Pinned axiom reports: one failing input per violation kind
# ---------------------------------------------------------------------------

def broken_leibniz_report():
    # degrees (-1, 0), [b, a] = a, d a = b: d[b,a] = b but [db,a] + [b,da] = 0
    basis = GradedBasis(("a", "b"), (-1, 0))
    alg = GradedLieAlgebra(basis, {(1, 0): {0: Q(1)}, (0, 1): {0: Q(-1)}})
    return check_dgla(Dgla(alg, Differential({0: {1: Q(1)}})))


def negated_vector_representation():
    alpha = vector_representation_so3()
    mats = [[row[:] for row in m] for m in alpha.matrices]
    mats[0][1][2] = -mats[0][1][2]
    return ActionMap(alpha.actor, alpha.module, tuple(mats))


def noncommuting_differential_action():
    # so(3) rotates e1..e3 and fixes f; d e1 = f does not commute with that
    h = Dgla(GradedLieAlgebra(GradedBasis(("e1", "e2", "e3", "f"),
                                          (0, 0, 0, 1)), {}),
             Differential({0: {3: Q(1)}}))
    mats = []
    for m in vector_representation_so3().matrices:
        big = exact.zeros(4, 4)
        for j in range(3):
            big[j][:3] = m[j]
        mats.append(big)
    return ActionMap(so3(), h, tuple(mats))


def mixed_degree_action():
    h = Dgla(GradedLieAlgebra(GradedBasis(("u", "v"), (0, 1)), {}))
    return ActionMap(abelian(("x",)), h, ([[Q(0), Q(1)], [Q(0), Q(0)]],))


def identity_on_so3_action():
    # the identity map is not a derivation of a nonzero bracket
    return ActionMap(abelian(("x",)), so3(), (exact.identity(3),))


FAILING_ACTIONS = (negated_vector_representation,
                   noncommuting_differential_action, mixed_degree_action,
                   identity_on_so3_action)


def negated_vector_representation_report():
    return check_action_map(negated_vector_representation())


def noncommuting_differential_report():
    return check_action_map(noncommuting_differential_action())


def mixed_degree_report():
    return check_action_map(mixed_degree_action())


def identity_on_so3_report():
    return check_action_map(identity_on_so3_action())


def plus_variant_report():
    s = build_action_dgla(vector_representation_so3(), plus_variant=True)
    return check_dgla(s.total)


ACTION_BRACKET = ("alpha[x,y] != alpha(x)alpha(y) "
                  "- (-1)^{|x||y|} alpha(y)alpha(x)")
NOT_A_DERIVATION = "alpha(x) is not a graded derivation of [-,-]_h"
JACOBI = "graded Jacobi identity fails"

PINNED_REPORTS = {
    "leibniz": (broken_leibniz_report, """\
dgla axioms: 3 violation(s)
  - leibniz at ('a', 'a'): d[x,y] != [dx,y] + (-1)^|x| [x,dy]
  - leibniz at ('a', 'b'): d[x,y] != [dx,y] + (-1)^|x| [x,dy]
  - leibniz at ('b', 'a'): d[x,y] != [dx,y] + (-1)^|x| [x,dy]"""),
    "action-bracket": (negated_vector_representation_report, f"""\
action map: 6 violation(s)
  - action-bracket at ('L1', 'L2'): {ACTION_BRACKET}
  - action-bracket at ('L1', 'L3'): {ACTION_BRACKET}
  - action-bracket at ('L2', 'L1'): {ACTION_BRACKET}
  - action-bracket at ('L2', 'L3'): {ACTION_BRACKET}
  - action-bracket at ('L3', 'L1'): {ACTION_BRACKET}
  - action-bracket at ('L3', 'L2'): {ACTION_BRACKET}"""),
    "action-differential": (noncommuting_differential_report, """\
action map: 2 violation(s)
  - action-differential at ('L2',): alpha(dx) != [d_h, alpha(x)]
  - action-differential at ('L3',): alpha(dx) != [d_h, alpha(x)]"""),
    "action-degree": (mixed_degree_report, """\
action map: 1 violation(s)
  - action-degree at ('x',): alpha(x) is not homogeneous of degree 0"""),
    "action-derivation": (identity_on_so3_report, f"""\
action map: 6 violation(s)
  - action-derivation at ('x', 'L1', 'L2'): {NOT_A_DERIVATION}
  - action-derivation at ('x', 'L1', 'L3'): {NOT_A_DERIVATION}
  - action-derivation at ('x', 'L2', 'L1'): {NOT_A_DERIVATION}
  - action-derivation at ('x', 'L2', 'L3'): {NOT_A_DERIVATION}
  - action-derivation at ('x', 'L3', 'L1'): {NOT_A_DERIVATION}
  - action-derivation at ('x', 'L3', 'L2'): {NOT_A_DERIVATION}"""),
    "plus-variant-antisymmetry": (plus_variant_report, f"""\
dgla axioms: 18 violation(s)
  - antisymmetry at ('g.L1', 'h.e2'): [h.e2,g.L1] != -[g.L1,h.e2] on h.e3
  - antisymmetry at ('g.L1', 'h.e3'): [h.e3,g.L1] != -[g.L1,h.e3] on h.e2
  - antisymmetry at ('g.L2', 'h.e1'): [h.e1,g.L2] != -[g.L2,h.e1] on h.e3
  - antisymmetry at ('g.L2', 'h.e3'): [h.e3,g.L2] != -[g.L2,h.e3] on h.e1
  - antisymmetry at ('g.L3', 'h.e1'): [h.e1,g.L3] != -[g.L3,h.e1] on h.e2
  - antisymmetry at ('g.L3', 'h.e2'): [h.e2,g.L3] != -[g.L3,h.e2] on h.e1
  - jacobi at ('h.e1', 'g.L2', 'g.L1'): {JACOBI}
  - jacobi at ('h.e1', 'g.L2', 'g.L2'): {JACOBI}
  - jacobi at ('h.e1', 'g.L3', 'g.L1'): {JACOBI}
  - jacobi at ('h.e1', 'g.L3', 'g.L3'): {JACOBI}
  - jacobi at ('h.e2', 'g.L1', 'g.L1'): {JACOBI}
  - jacobi at ('h.e2', 'g.L1', 'g.L2'): {JACOBI}
  - jacobi at ('h.e2', 'g.L3', 'g.L2'): {JACOBI}
  - jacobi at ('h.e2', 'g.L3', 'g.L3'): {JACOBI}
  - jacobi at ('h.e3', 'g.L1', 'g.L1'): {JACOBI}
  - jacobi at ('h.e3', 'g.L1', 'g.L3'): {JACOBI}
  - jacobi at ('h.e3', 'g.L2', 'g.L2'): {JACOBI}
  - jacobi at ('h.e3', 'g.L2', 'g.L3'): {JACOBI}"""),
}


@pytest.mark.parametrize("kind", sorted(PINNED_REPORTS))
def test_failing_report_text_is_pinned(kind):
    build, expected = PINNED_REPORTS[kind]
    assert str(build()) == expected


def assert_sum_pass_names_the_action_violation(alpha):
    """Where ``alpha`` fails its axioms, its sum fails the dgla axioms, so
    build_action_dgla's one check_dgla pass rejects it, naming the first
    action violation."""
    report = check_action_map(alpha)
    if report.passed:
        return
    assert not check_dgla(_action_sum(alpha).total).passed
    with pytest.raises(StructureError) as raised:
        build_action_dgla(alpha)
    assert str(raised.value) == f"invalid action map: {report.violations[0]}"


@pytest.mark.parametrize("build", FAILING_ACTIONS,
                         ids=lambda build: build.__name__)
def test_one_sum_pass_rejects_each_pinned_failing_action(build):
    alpha = build()
    assert not check_action_map(alpha).passed
    assert_sum_pass_names_the_action_violation(alpha)


# ---------------------------------------------------------------------------
# check_exactness
# ---------------------------------------------------------------------------

def test_exactness_detects_zero_projection():
    s = build_action_dgla(vector_representation_so3())
    broken = type(s)(s.actor, s.module, s.total,
                     s.inject,
                     type(s.project)(s.total, s.actor,
                                     exact.zeros(6, 3)))
    report = check_exactness(broken)
    assert any(v.axiom == "surjectivity" for v in report.violations)


def test_exactness_detects_degree_shift_in_inject():
    g = abelian(("x",))
    h = Dgla(GradedLieAlgebra(GradedBasis(("u", "v"), (0, 1)), {}),
             Differential({}))
    s = build_action_dgla(zero_action(g, h))
    swapped = [row[:] for row in s.inject.matrix]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    broken = type(s)(s.actor, s.module, s.total,
                     type(s.inject)(h, s.total, swapped), s.project)
    report = check_exactness(broken)
    degree_violations = [v for v in report.violations
                         if v.axiom == "inject-morphism-degree"]
    assert degree_violations and degree_violations[0].witness == ("u",)


# ---------------------------------------------------------------------------
# Poincare utilities
# ---------------------------------------------------------------------------

def test_shipped_poincare_document_matches_the_code_table():
    shipped = dgla_from_json(json.loads(
        (SCENARIOS / "poincare_algebra.json").read_text()))
    assert shipped.basis.labels == poincare_algebra().basis.labels
    assert shipped.algebra.brackets == poincare_algebra().brackets


def test_poincare_dimension_is_ten():
    assert poincare_algebra().dim == 10


def test_rotation_aliases_close_like_so3():
    a = poincare_algebra()
    l1 = poincare_coefficients("L1")
    l2 = poincare_coefficients("L2")
    assert a.bracket_eval(l1, l2) == poincare_coefficients("L3")


def test_static_spherical_generators_close():
    gens = [poincare_coefficients(n) for n in ("dt", "L1", "L2", "L3")]
    assert closure_check(gens)


def test_translation_rotation_pair_does_not_close():
    gens = [poincare_coefficients("P1"), poincare_coefficients("J12")]
    assert not closure_check(gens)


def test_adding_boost_breaks_spherical_closure():
    gens = [poincare_coefficients(n)
            for n in ("dt", "L1", "L2", "L3", "K1")]
    assert not closure_check(gens)


# ---------------------------------------------------------------------------
# Strict morphisms
# ---------------------------------------------------------------------------

def so3_into_poincare(signs=(1, 1, 1)):
    rows = [[sign * c for c in poincare_coefficients(name)]
            for sign, name in zip(signs, ("L1", "L2", "L3"))]
    return DglaMorphism(so3(), poincare_dgla(), rows)


def test_identity_is_a_strict_morphism():
    identity = [basis_vec(3, i) for i in range(3)]
    assert check_morphism(DglaMorphism(so3(), so3(), identity)) == []


def test_rotation_inclusion_into_poincare_is_a_strict_morphism():
    assert check_morphism(so3_into_poincare()) == []


def test_negated_rotation_breaks_brackets_with_witness():
    violations = check_morphism(so3_into_poincare(signs=(-1, 1, 1)))
    assert violations
    assert {v.axiom for v in violations} == {"morphism-bracket"}
    assert ("L1", "L2") in [v.witness for v in violations]


# ---------------------------------------------------------------------------
# Randomized properties (seeded)
# ---------------------------------------------------------------------------

def unimodular(rng, n):
    """Random integer matrix with determinant +-1 (product of shears/swaps)."""
    m = exact.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Q(rng.randint(-2, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    rng.shuffle(m)
    return m


def conjugate_algebra(d: Dgla, u) -> Dgla:
    """Change of basis b'_i = sum_a u[i][a] b_a (degree-0 algebras only)."""
    v = exact.inverse(u)
    dim = d.dim
    brackets = {}
    for i in range(dim):
        for j in range(dim):
            out = d.algebra.bracket_eval(u[i], u[j])
            row = {}
            for k in range(dim):
                c = sum(out[m] * v[m][k] for m in range(dim))
                if c != 0:
                    row[k] = c
            if row:
                brackets[(i, j)] = row
    return Dgla(GradedLieAlgebra(d.basis, brackets))


@pytest.mark.parametrize("seed", range(6))
def test_random_small_lie_algebras_adjoint_passes(seed):
    rng = random.Random(seed)
    base = rng.choice([
        so3(),
        abelian(("a", "b", "c")),
        # solvable: [x, y] = y
        Dgla(GradedLieAlgebra(GradedBasis(("x", "y"), (0, 0)),
                              {(0, 1): {1: Q(1)}, (1, 0): {1: Q(-1)}})),
    ])
    twisted = conjugate_algebra(base, unimodular(rng, base.dim))
    assert check_dgla(twisted).passed
    s = adjoint_action(twisted)
    assert check_dgla(s.total).passed
    assert check_exactness(s).passed


def random_action_map(rng) -> ActionMap:
    """A valid action map: known representation conjugated by a unimodular map."""
    kind = rng.choice(["vector", "adjoint", "zero", "abelian-nilpotent"])
    if kind == "vector":
        alpha = vector_representation_so3()
    elif kind == "adjoint":
        g = so3()
        mats = tuple(
            [[g.algebra.structure_constant(i, j, k) for k in range(3)]
             for j in range(3)]
            for i in range(3))
        alpha = ActionMap(g, g, mats)
    elif kind == "zero":
        alpha = zero_action(so3(), abelian(("u", "v")))
    else:
        # abelian actor acting by commuting nilpotents c_i * N
        g = abelian(("a", "b"))
        n = exact.zeros(3, 3)
        n[0][1] = Q(1)
        n[1][2] = Q(rng.randint(-2, 2))
        mats = tuple([[c * x for x in row] for row in n]
                     for c in (Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))))
        alpha = ActionMap(g, abelian(("u", "v", "w")), mats)
    if rng.random() < 0.5 or kind == "adjoint":
        return alpha
    u = unimodular(rng, alpha.module.dim)
    v = exact.inverse(u)
    mats = tuple(exact.matmul(exact.matmul(u, m), v) for m in alpha.matrices)
    return ActionMap(alpha.actor, alpha.module, mats)


def test_twenty_randomized_round_trips_exact():
    rng = random.Random(20260808)
    for _ in range(20):
        alpha = random_action_map(rng)
        assert check_action_map(alpha).passed
        assert extract_action_map(build_action_dgla(alpha)) == alpha


# ---------------------------------------------------------------------------
# The sparse checks against a dense brute-force reference (seeded)
# ---------------------------------------------------------------------------

def dense_bracket(a, x, y):
    """[x, y] of dense vectors, summed over every basis pair and output."""
    out = [Q(0)] * a.dim
    for i in (i for i, xi in enumerate(x) if xi):
        for j in (j for j, yj in enumerate(y) if yj):
            for k in range(a.dim):
                if a.structure_constant(i, j, k):
                    out[k] += x[i] * y[j] * a.structure_constant(i, j, k)
    return out


def dense_apply(matrix, x):
    """Row convention: f(x) = sum_i x_i M[i]."""
    out = [Q(0)] * len(matrix[0])
    for xi, row in zip(x, matrix):
        if xi:
            out = [o + xi * r for o, r in zip(out, row)]
    return out


def dense_compose(f, f2):
    """Row-convention matrix of the map x -> f(f2(x))."""
    return [dense_apply(f, row) for row in f2]


def dense_combine(terms, n):
    """sum of c * M over (c, M) pairs of n x n matrices."""
    out = exact.zeros(n, n)
    for c, m in terms:
        if c:
            out = [[o + c * x for o, x in zip(out_row, row)]
                   for out_row, row in zip(out, m)]
    return out


def dense_differential(d):
    return [[d.differential.of_basis(i).get(k, Q(0)) for k in range(d.dim)]
            for i in range(d.dim)]


def report_text(subject, lines):
    if not lines:
        return f"{subject}: pass"
    return "\n".join([f"{subject}: {len(lines)} violation(s)"]
                     + [f"  - {line}" for line in lines])


def reference_dgla_lines(d):
    a, n = d.algebra, d.dim
    lab, deg = a.basis.labels, a.basis.degrees
    c = a.structure_constant
    e = [basis_vec(n, i) for i in range(n)]
    lines = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c(i, j, k) and deg[k] != deg[i] + deg[j]:
                    lines.append(
                        f"bracket-degree at {(lab[i], lab[j])}: coefficient "
                        f"{exact.format_rational(c(i, j, k))} on {lab[k]} "
                        f"(degree {deg[k]} != {deg[i]} + {deg[j]})")
    antisymmetric = True
    for i in range(n):
        for j in range(i, n):
            s = (-1) ** (deg[i] * deg[j])
            bad = [k for k in range(n) if c(j, i, k) != -s * c(i, j, k)]
            if bad:
                antisymmetric = False
                lines.append(
                    f"antisymmetry at {(lab[i], lab[j])}: [{lab[j]},{lab[i]}]"
                    f" != {'-' if s > 0 else '+'}[{lab[i]},{lab[j]}] on "
                    f"{lab[bad[0]]}")
    for i in range(n):
        for j in range(i if antisymmetric else 0, n):
            for k in range(j if antisymmetric else 0, n):
                s = (-1) ** (deg[i] * deg[j])
                terms = zip(
                    dense_bracket(a, e[i], dense_bracket(a, e[j], e[k])),
                    dense_bracket(a, dense_bracket(a, e[i], e[j]), e[k]),
                    dense_bracket(a, e[j], dense_bracket(a, e[i], e[k])))
                if any(p - q - s * r for p, q, r in terms):
                    lines.append(f"jacobi at {(lab[i], lab[j], lab[k])}: "
                                 "graded Jacobi identity fails")
    dm = dense_differential(d)
    for i in range(n):
        for k in range(n):
            if dm[i][k] and deg[k] != deg[i] + 1:
                lines.append(
                    f"differential-degree at {(lab[i],)}: coefficient "
                    f"{exact.format_rational(dm[i][k])} on {lab[k]} "
                    f"(degree {deg[k]} != {deg[i]} + 1)")
    for i in range(n):
        if any(dense_apply(dm, dm[i])):
            lines.append(f"d-squared at {(lab[i],)}: d(d(b)) != 0")
    for m, n_ in reference_derivation_failures(dm, 1, a):
        lines.append(f"leibniz at {(lab[m], lab[n_])}: "
                     "d[x,y] != [dx,y] + (-1)^|x| [x,dy]")
    return lines


def reference_derivation_failures(f, degree, a):
    e = [basis_vec(a.dim, i) for i in range(a.dim)]
    deg = a.basis.degrees
    return [(m, n) for m in range(a.dim) for n in range(a.dim)
            if dense_apply(f, dense_bracket(a, e[m], e[n])) != [
                p + (-1) ** (degree * deg[m]) * q for p, q in
                zip(dense_bracket(a, f[m], e[n]),
                    dense_bracket(a, e[m], f[n]))]]


def reference_action_text(alpha):
    g, h = alpha.actor, alpha.module
    glab, gdeg, hdeg = g.basis.labels, g.basis.degrees, h.basis.degrees
    mats = alpha.matrices
    lines = []
    for i in range(g.dim):
        for j in range(h.dim):
            if any(mats[i][j][k] and hdeg[k] != hdeg[j] + gdeg[i]
                   for k in range(h.dim)):
                lines.append(f"action-degree at {(glab[i],)}: alpha("
                             f"{glab[i]}) is not homogeneous of degree "
                             f"{gdeg[i]}")

    def commutator(f, f2, s):
        return dense_combine([(1, dense_compose(f, f2)),
                              (-s, dense_compose(f2, f))], h.dim)

    for i in range(g.dim):
        for j in range(g.dim):
            lhs = dense_combine([(g.algebra.structure_constant(i, j, k),
                                  mats[k]) for k in range(g.dim)], h.dim)
            if lhs != commutator(mats[i], mats[j],
                                 (-1) ** (gdeg[i] * gdeg[j])):
                lines.append(f"action-bracket at {(glab[i], glab[j])}: "
                             f"{ACTION_BRACKET}")
    dg, dh = dense_differential(g), dense_differential(h)
    for i in range(g.dim):
        lhs = dense_combine([(dg[i][k], mats[k]) for k in range(g.dim)],
                            h.dim)
        if lhs != commutator(dh, mats[i], (-1) ** gdeg[i]):
            lines.append(f"action-differential at {(glab[i],)}: "
                         "alpha(dx) != [d_h, alpha(x)]")
    for i in range(g.dim):
        for m, n in reference_derivation_failures(mats[i], gdeg[i],
                                                  h.algebra):
            lines.append(f"action-derivation at "
                         f"{(glab[i], h.basis.labels[m], h.basis.labels[n])}"
                         f": {NOT_A_DERIVATION}")
    return report_text("action map", lines)


def reference_morphism_lines(phi):
    src, tgt = phi.source, phi.target
    slab, m = src.basis.labels, phi.matrix
    e = [basis_vec(src.dim, i) for i in range(src.dim)]
    ds, dt = dense_differential(src), dense_differential(tgt)
    lines = [f"morphism-degree at {(slab[i],)}: image hits "
             f"{tgt.basis.labels[k]} of different degree"
             for i in range(src.dim) for k in range(tgt.dim)
             if m[i][k] and tgt.basis.degrees[k] != src.basis.degrees[i]]
    lines += [f"morphism-differential at {(slab[i],)}: phi(d x) != d phi(x)"
              for i in range(src.dim)
              if dense_apply(m, ds[i]) != dense_apply(dt, m[i])]
    lines += [f"morphism-bracket at {(slab[i], slab[j])}: "
              "phi[x,y] != [phi x, phi y]"
              for i in range(src.dim) for j in range(src.dim)
              if dense_apply(m, dense_bracket(src.algebra, e[i], e[j]))
              != dense_bracket(tgt.algebra, m[i], m[j])]
    return lines


def reference_exactness_text(s):
    lines = [f"{side}-{line}" for side, phi in (("inject", s.inject),
                                               ("project", s.project))
             for line in reference_morphism_lines(phi)]
    if exact.rank(s.inject.matrix) != s.module.dim:
        lines.append("injectivity at ('inject',): inject has nontrivial "
                     "kernel")
    if exact.rank(s.project.matrix) != s.actor.dim:
        lines.append("surjectivity at ('project',): project is not onto")
    if any(any(dense_apply(s.project.matrix, row))
           for row in s.inject.matrix):
        lines.append("exactness at ('project . inject',): image(inject) not "
                     "contained in kernel(project)")
    elif (exact.rank(s.inject.matrix)
          != s.total.dim - exact.rank(s.project.matrix)):
        lines.append("exactness at ('dimensions',): image(inject) is a "
                     "proper subspace of kernel(project)")
    return report_text("exact sequence", lines)


def tensor_dgla(g, p):
    """g (x) A for a Lie algebra g and the cdga A = <1, u, du, u du>,
    |u| = p odd, (du)^2 = 0: [x a, y b] = [x, y] ab and d(x a) = x da."""
    names, degrees = ("1", "u", "du", "udu"), (0, p, p + 1, 2 * p + 1)
    product = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 0): 1,
               (2, 0): 2, (3, 0): 3, (1, 2): 3, (2, 1): 3}
    index = {(x, a): 4 * x + a for x in range(g.dim) for a in range(4)}
    basis = GradedBasis(tuple(f"{x}.{a}" for x in g.basis.labels
                              for a in names), degrees * g.dim)
    brackets = {}
    for (x, y), row in g.algebra.brackets.items():
        for (a, b), ab in product.items():
            brackets[index[x, a], index[y, b]] = {
                index[z, ab]: c for z, c in row.items()}
    rows = {index[x, 1]: {index[x, 2]: Q(1)} for x in range(g.dim)}
    return Dgla(GradedLieAlgebra(basis, brackets), Differential(rows))


def perturbed(rng, matrix):
    out = [row[:] for row in matrix]
    i, k = rng.randrange(len(out)), rng.randrange(len(out[0]))
    out[i][k] += rng.choice((-2, -1, 1, 2))
    return out


def perturbed_dgla(rng, d, kind):
    brackets = {key: dict(row) for key, row in d.algebra.brackets.items()}
    rows = {i: dict(row) for i, row in d.differential.rows.items()}
    i, j, k = (rng.randrange(d.dim) for _ in range(3))
    c = Q(rng.choice((-2, -1, 1, 2)))
    if kind == "differential":
        rows.setdefault(i, {})[k] = rows.get(i, {}).get(k, 0) + c
    else:
        brackets.setdefault((i, j), {})[k] = \
            brackets.get((i, j), {}).get(k, 0) + c
        if kind == "antisymmetric" and i != j:
            s = (-1) ** (d.basis.degrees[i] * d.basis.degrees[j])
            brackets.setdefault((j, i), {})[k] = \
                brackets.get((j, i), {}).get(k, 0) - s * c
    return Dgla(GradedLieAlgebra(d.basis, brackets), Differential(rows))


def adjoint_map(d):
    c = d.algebra.structure_constant
    return ActionMap(d, d, tuple(
        [[c(i, j, k) for k in range(d.dim)] for j in range(d.dim)]
        for i in range(d.dim)))


SOLVABLE = Dgla(GradedLieAlgebra(GradedBasis(("x", "y"), (0, 0)),
                                 {(0, 1): {1: Q(1)}, (1, 0): {1: Q(-1)}}))


def test_sparse_checks_match_a_dense_reference():
    # graded algebras with odd degrees and a differential, each with one
    # perturbed entry, reach every witness kind of the sparse checks
    rng = random.Random(27)
    seen = set()

    def agree(got, want):
        assert got == want
        lines = want.splitlines()[1:] if isinstance(want, str) else want
        seen.update(line.split(" at ")[0].strip(" -") for line in lines)

    for _ in range(2):
        for p in (1, -1):
            d = tensor_dgla(SOLVABLE, p)
            assert check_dgla(d).passed
            for dgla in (d, *(perturbed_dgla(rng, d, kind) for kind in (
                    "bracket", "antisymmetric", "differential"))):
                agree(str(check_dgla(dgla)),
                      report_text("dgla axioms", reference_dgla_lines(dgla)))
            alpha = adjoint_map(d)
            assert check_action_map(alpha).passed
            mats = list(alpha.matrices)
            i = rng.randrange(d.dim)
            mats[i] = perturbed(rng, mats[i])
            bent = ActionMap(d, d, tuple(mats))
            agree(str(check_action_map(bent)), reference_action_text(bent))
            assert_sum_pass_names_the_action_violation(bent)
            phi = DglaMorphism(d, d, perturbed(rng, exact.identity(d.dim)))
            agree([str(v) for v in check_morphism(phi)],
                  reference_morphism_lines(phi))
            s = adjoint_action(d)
            for broken in (
                    replace(s, inject=replace(s.inject, matrix=perturbed(
                        rng, s.inject.matrix))),
                    replace(s, project=replace(s.project, matrix=perturbed(
                        rng, s.project.matrix)))):
                agree(str(check_exactness(broken)),
                      reference_exactness_text(broken))
    assert seen >= {"bracket-degree", "antisymmetry", "jacobi",
                    "differential-degree", "d-squared", "leibniz",
                    "action-degree", "action-bracket", "action-differential",
                    "action-derivation", "morphism-degree",
                    "morphism-differential", "morphism-bracket"}, seen
