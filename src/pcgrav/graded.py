"""Differential graded Lie algebras over exact rationals.

Algebras are presented by a graded basis and structure constants, so every
axiom (grading, antisymmetry, Jacobi, d^2 = 0, Leibniz) is checkable by a
finite exact loop -- no tolerances anywhere in this module.

Brackets are stored sparsely: ``brackets[(i, j)] = {k: c}`` means
``[b_i, b_j] = sum_k c b_k``.  Linear maps (differentials, morphisms,
action endomorphisms) use the row convention ``f(b_i) = sum_k M[i][k] b_k``.
Every axiom check works on sparse vectors ``{k: c}`` with no zero
coefficients, so two vectors are equal exactly when their dicts are: a
map is its sparse rows ``{i: f(b_i)}`` (a dense matrix is read into them
once), and a vector's image is the sum of its coefficients times those
rows.  One helper checks graded derivations, for ``d`` (Leibniz) and for
each ``alpha(x)`` of an action map.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import exact
from .exact import ONE, ZERO


class StructureError(ValueError):
    """A constructed object violates its structural contract."""


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedBasis:
    labels: tuple
    degrees: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.degrees):
            raise StructureError("labels and degrees must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise StructureError("basis labels must be unique")

    def __len__(self):
        return len(self.labels)


def _normalize_sparse(table):
    """Drop explicit zeros; coerce values to Fraction."""
    out = {}
    for key, row in table.items():
        row = {k: Fraction(v) for k, v in row.items() if Fraction(v) != 0}
        if row:
            out[key] = row
    return out


def _sparse_rows(matrix) -> dict:
    """Sparse rows ``{i: {k: c}}`` of a dense row-convention matrix."""
    return _normalize_sparse(dict(enumerate(dict(enumerate(row))
                                            for row in matrix)))


def _add(acc: dict, vec: dict, c) -> dict:
    """acc += c * vec on sparse vectors, dropping the zeros it makes."""
    for k, v in vec.items():
        x = acc.get(k, ZERO) + c * v
        if x:
            acc[k] = x
        else:
            acc.pop(k, None)
    return acc


def _image(vec: dict, rows: dict) -> dict:
    """f(vec) for the map with sparse rows ``rows[i] = f(b_i)``."""
    out = {}
    for i, c in vec.items():
        _add(out, rows.get(i, {}), c)
    return out


def _bracket(a, x: dict, y: dict) -> dict:
    """[x, y] in ``a`` for sparse vectors x, y."""
    out = {}
    for i, xi in x.items():
        for j, yj in y.items():
            _add(out, a.brackets.get((i, j), {}), xi * yj)
    return out


@dataclass(frozen=True)
class GradedLieAlgebra:
    """Graded Lie algebra given by structure constants (not yet verified)."""

    basis: GradedBasis
    brackets: dict = field(default_factory=dict)  # (i, j) -> {k: Fraction}

    def __post_init__(self):
        object.__setattr__(self, "brackets", _normalize_sparse(self.brackets))

    @property
    def dim(self):
        return len(self.basis)

    def bracket_basis(self, i: int, j: int) -> dict:
        return self.brackets.get((i, j), {})

    def structure_constant(self, i: int, j: int, k: int) -> Fraction:
        return self.bracket_basis(i, j).get(k, ZERO)

    def bracket_eval(self, x, y) -> list:
        """[x, y] for dense coefficient vectors x, y in this basis (exact),
        through the sparse bracket of the axiom checks."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError(
                f"coefficient vectors must have length {self.dim}, "
                f"got {len(x)} and {len(y)}"
            )
        rows = _sparse_rows([x, y])
        out = [ZERO] * self.dim
        for k, c in _bracket(self, rows.get(0, {}), rows.get(1, {})).items():
            out[k] = c
        return out


@dataclass(frozen=True)
class Differential:
    """Degree +1 linear map, rows over the algebra basis."""

    rows: dict = field(default_factory=dict)  # i -> {k: Fraction}

    def __post_init__(self):
        object.__setattr__(self, "rows", _normalize_sparse(self.rows))

    def of_basis(self, i: int) -> dict:
        return self.rows.get(i, {})


@dataclass(frozen=True)
class Dgla:
    algebra: GradedLieAlgebra
    differential: Differential = field(default_factory=Differential)

    @property
    def basis(self):
        return self.algebra.basis

    @property
    def dim(self):
        return self.algebra.dim


@dataclass(frozen=True)
class DglaMorphism:
    """Strict map of dglas: degree 0, commutes with d, preserves brackets."""

    source: Dgla
    target: Dgla
    matrix: list  # dense rows: source basis -> target coefficients


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    detail: str

    def __str__(self):
        return f"{self.axiom} at {self.witness}: {self.detail}"


@dataclass(frozen=True)
class AxiomReport:
    subject: str
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.passed:
            return f"{self.subject}: pass"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


def _sign(n: int) -> int:
    return -1 if n % 2 else 1


def check_graded_lie(a: GradedLieAlgebra) -> list:
    """Violations of bracket degree, graded antisymmetry, graded Jacobi."""
    violations = []
    labels = a.basis.labels
    deg = a.basis.degrees
    dim = a.dim

    for (i, j), row in sorted(a.brackets.items()):
        for k, c in sorted(row.items()):
            if deg[k] != deg[i] + deg[j]:
                violations.append(Violation(
                    "bracket-degree", (labels[i], labels[j]),
                    f"coefficient {exact.format_rational(c)} on {labels[k]} "
                    f"(degree {deg[k]} != {deg[i]} + {deg[j]})"))

    antisym_ok = True
    for i in range(dim):
        for j in range(i, dim):
            lhs = a.bracket_basis(i, j)
            rhs = a.bracket_basis(j, i)
            s = _sign(deg[i] * deg[j])
            keys = set(lhs) | set(rhs)
            bad = [k for k in keys
                   if rhs.get(k, ZERO) != -s * lhs.get(k, ZERO)]
            if bad:
                antisym_ok = False
                k = min(bad)
                violations.append(Violation(
                    "antisymmetry", (labels[i], labels[j]),
                    f"[{labels[j]},{labels[i]}] != "
                    f"{'-' if s > 0 else '+'}[{labels[i]},{labels[j]}] "
                    f"on {labels[k]}"))

    # With antisymmetry verified, Jacobi over ordered triples covers all
    # orderings; without it, scan everything so a witness is still found.
    if antisym_ok:
        triples = ((i, j, k) for i in range(dim)
                   for j in range(i, dim) for k in range(j, dim))
    else:
        triples = ((i, j, k) for i in range(dim)
                   for j in range(dim) for k in range(dim))
    for i, j, k in triples:
        # [b_i,[b_j,b_k]] - [[b_i,b_j],b_k] - (-1)^{|i||j|} [b_j,[b_i,b_k]]
        acc = _bracket(a, {i: ONE}, a.bracket_basis(j, k))
        _add(acc, _bracket(a, a.bracket_basis(i, j), {k: ONE}), -1)
        _add(acc, _bracket(a, {j: ONE}, a.bracket_basis(i, k)),
             -_sign(deg[i] * deg[j]))
        if acc:
            violations.append(Violation(
                "jacobi", (labels[i], labels[j], labels[k]),
                "graded Jacobi identity fails"))
    return violations


def _derivation_failures(rows, degree: int, a: GradedLieAlgebra) -> list:
    """Basis pairs (m, n) where f[x,y] != [fx,y] + (-1)^{|f||x|} [x,fy].

    ``rows`` are the sparse images ``f(b_i)`` of the basis of ``a``, and
    ``degree`` is |f|.
    """
    deg = a.basis.degrees
    failures = []
    for m in range(a.dim):
        s = _sign(degree * deg[m])
        for n in range(a.dim):
            rhs = _bracket(a, rows.get(m, {}), {n: ONE})
            _add(rhs, _bracket(a, {m: ONE}, rows.get(n, {})), s)
            if _image(a.bracket_basis(m, n), rows) != rhs:
                failures.append((m, n))
    return failures


def check_dgla(d: Dgla) -> AxiomReport:
    """Exact axiom report: degree, antisymmetry, Jacobi, d-degree, d^2, Leibniz."""
    a = d.algebra
    labels = a.basis.labels
    deg = a.basis.degrees
    dim = a.dim
    violations = check_graded_lie(a)

    for i, row in sorted(d.differential.rows.items()):
        for k, c in sorted(row.items()):
            if deg[k] != deg[i] + 1:
                violations.append(Violation(
                    "differential-degree", (labels[i],),
                    f"coefficient {exact.format_rational(c)} on {labels[k]} "
                    f"(degree {deg[k]} != {deg[i]} + 1)"))

    rows = d.differential.rows
    for i in range(dim):
        if _image(d.differential.of_basis(i), rows):
            violations.append(Violation(
                "d-squared", (labels[i],), "d(d(b)) != 0"))

    for i, j in _derivation_failures(rows, 1, a):
        violations.append(Violation(
            "leibniz", (labels[i], labels[j]),
            "d[x,y] != [dx,y] + (-1)^|x| [x,dy]"))
    return AxiomReport("dgla axioms", tuple(violations))


def check_morphism(phi: DglaMorphism) -> list:
    """Violations of the strict-morphism conditions for ``phi``."""
    violations = []
    src, tgt = phi.source, phi.target
    slab = src.basis.labels
    rows = _sparse_rows(phi.matrix)

    for i in range(src.dim):
        for k in rows.get(i, {}):
            if tgt.basis.degrees[k] != src.basis.degrees[i]:
                violations.append(Violation(
                    "morphism-degree", (slab[i],),
                    f"image hits {tgt.basis.labels[k]} of different degree"))

    for i in range(src.dim):
        if (_image(src.differential.of_basis(i), rows)
                != _image(rows.get(i, {}), tgt.differential.rows)):
            violations.append(Violation(
                "morphism-differential", (slab[i],),
                "phi(d x) != d phi(x)"))

    for i in range(src.dim):
        for j in range(src.dim):
            lhs = _image(src.algebra.bracket_basis(i, j), rows)
            rhs = _bracket(tgt.algebra, rows.get(i, {}), rows.get(j, {}))
            if lhs != rhs:
                violations.append(Violation(
                    "morphism-bracket", (slab[i], slab[j]),
                    "phi[x,y] != [phi x, phi y]"))
    return violations


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionMap:
    """alpha: g -> End(h), one endomorphism matrix per g basis element.

    ``matrices[i]`` is the row-convention matrix of alpha(b_i) on h, of
    degree deg(b_i).  Validity (Lie map into the endomorphism dgla, acting
    by graded derivations, compatible with both differentials) is checked
    by :func:`check_action_map`.
    """

    actor: Dgla
    module: Dgla
    matrices: tuple  # one dense matrix per actor basis element

    def __eq__(self, other):
        return (isinstance(other, ActionMap)
                and self.actor.basis == other.actor.basis
                and self.module.basis == other.module.basis
                and self.matrices == other.matrices)


def zero_action(actor: Dgla, module: Dgla) -> ActionMap:
    return ActionMap(actor, module, tuple(
        exact.zeros(module.dim, module.dim) for _ in range(actor.dim)))


def check_action_map(alpha: ActionMap) -> AxiomReport:
    violations = []
    g, h = alpha.actor, alpha.module
    glab, gdeg = g.basis.labels, g.basis.degrees
    hdeg = h.basis.degrees
    maps = [_sparse_rows(m) for m in alpha.matrices]

    for i in range(g.dim):
        di = gdeg[i]
        for j, row in maps[i].items():
            if any(hdeg[k] != hdeg[j] + di for k in row):
                violations.append(Violation(
                    "action-degree", (glab[i],),
                    f"alpha({glab[i]}) is not homogeneous of degree {di}"))

    def is_commutator(row, f, f2, s):
        """alpha(sum_k c b_k) for sparse ``row`` {k: c} equals the graded
        commutator f f2 - s f2 f of the sparse-row maps f and f2."""
        for m in range(h.dim):
            lhs = _image(row, {k: maps[k].get(m, {}) for k in row})
            rhs = _image(f2.get(m, {}), f)
            _add(rhs, _image(f.get(m, {}), f2), -s)
            if lhs != rhs:
                return False
        return True

    for i in range(g.dim):
        for j in range(g.dim):
            if not is_commutator(g.algebra.bracket_basis(i, j),
                                 maps[i], maps[j], _sign(gdeg[i] * gdeg[j])):
                violations.append(Violation(
                    "action-bracket", (glab[i], glab[j]),
                    "alpha[x,y] != alpha(x)alpha(y) "
                    "- (-1)^{|x||y|} alpha(y)alpha(x)"))

    for i in range(g.dim):
        if not is_commutator(g.differential.of_basis(i), h.differential.rows,
                             maps[i], _sign(gdeg[i])):
            violations.append(Violation(
                "action-differential", (glab[i],),
                "alpha(dx) != [d_h, alpha(x)]"))

    for i in range(g.dim):
        for m, n in _derivation_failures(maps[i], gdeg[i], h.algebra):
            violations.append(Violation(
                "action-derivation",
                (glab[i], h.basis.labels[m], h.basis.labels[n]),
                "alpha(x) is not a graded derivation of [-,-]_h"))
    return AxiomReport("action map", tuple(violations))


@dataclass(frozen=True)
class ActionStructure:
    """Dgla on g (+) h with the inject/project short exact sequence."""

    actor: Dgla
    module: Dgla
    total: Dgla
    inject: DglaMorphism   # h -> total
    project: DglaMorphism  # total -> g
    total_report: AxiomReport = None  # check_dgla(total), where one ran


def _sum_basis(g: Dgla, h: Dgla) -> GradedBasis:
    labels = tuple(f"g.{x}" for x in g.basis.labels) + \
        tuple(f"h.{x}" for x in h.basis.labels)
    return GradedBasis(labels, g.basis.degrees + h.basis.degrees)


def _sum_structure(g: Dgla, h: Dgla, cross,
                   plus_variant: bool) -> ActionStructure:
    """Assemble g (+) h with cross terms from ``cross(i, j) -> {k_h: c}``.

    ``cross(i, j)`` gives the h-part of [[g_i, h_j]]; the (h, g) orientation
    is filled in by graded antisymmetry, or with the same sign under
    ``plus_variant`` (see :func:`build_action_dgla`).
    """
    ng, nh = g.dim, h.dim
    basis = _sum_basis(g, h)
    brackets = {}
    for (i, j), row in g.algebra.brackets.items():
        brackets[(i, j)] = dict(row)
    for (i, j), row in h.algebra.brackets.items():
        brackets[(ng + i, ng + j)] = {ng + k: c for k, c in row.items()}
    for i in range(ng):
        for j in range(nh):
            row = cross(i, j)
            if row:
                brackets[(i, ng + j)] = {ng + k: c for k, c in row.items()}
                s = (1 if plus_variant
                     else -_sign(g.basis.degrees[i] * h.basis.degrees[j]))
                brackets[(ng + j, i)] = {
                    ng + k: s * c for k, c in row.items()}
    rows = {i: dict(r) for i, r in g.differential.rows.items()}
    for i, r in h.differential.rows.items():
        rows[ng + i] = {ng + k: c for k, c in r.items()}
    total = Dgla(GradedLieAlgebra(basis, brackets), Differential(rows))

    inj = exact.zeros(nh, ng + nh)
    for i in range(nh):
        inj[i][ng + i] = exact.ONE
    proj = exact.zeros(ng + nh, ng)
    for i in range(ng):
        proj[i][i] = exact.ONE
    return ActionStructure(
        actor=g, module=h, total=total,
        inject=DglaMorphism(h, total, inj),
        project=DglaMorphism(total, g, proj))


def build_action_dgla(alpha: ActionMap,
                      plus_variant: bool = False) -> ActionStructure:
    """Semidirect-sum dgla on g (+) h from an action map.

    Cross bracket: [[(X,0),(0,w)]] = (0, alpha(X) w), extended to the other
    orientation by graded antisymmetry, i.e. the v-term in
    [[(X,v),(Y,w)]] carries -(-1)^{|X||Y|} alpha(Y)(v).  The sum is
    checked with :func:`check_dgla`; the passing report is kept as
    ``total_report``.

    ``plus_variant=True`` instead uses +alpha(Y)(v) in both orientations
    (a symmetric cross term).  The result is *not* a Lie bracket whenever
    alpha != 0; it is kept only so the axiom checker can exhibit the
    antisymmetry witness.  No self-check is run for the variant.
    """
    report = check_action_map(alpha)
    if not report.passed:
        raise StructureError(f"invalid action map: {report.violations[0]}")

    def cross(i, j):
        return {k: c for k, c in enumerate(alpha.matrices[i][j]) if c != 0}

    structure = _sum_structure(alpha.actor, alpha.module, cross, plus_variant)
    if plus_variant:
        return structure
    report = check_dgla(structure.total)
    if not report.passed:
        raise StructureError(
            f"constructed sum fails dgla axioms: {report.violations[0]}")
    return replace(structure, total_report=report)


def adjoint_action(g: Dgla) -> ActionStructure:
    """g acting on itself: [[(X,X'),(Y,Y')]] = ([X,Y], [X',Y'] + [X,Y'] + [X',Y])."""

    def cross(i, j):
        return g.algebra.bracket_basis(i, j)

    return _sum_structure(g, g, cross, plus_variant=False)


def check_exactness(s: ActionStructure) -> AxiomReport:
    """Verify 0 -> h -> total -> g -> 0 with dgla maps, exactly."""
    violations = []
    violations += [Violation(f"inject-{v.axiom}", v.witness, v.detail)
                   for v in check_morphism(s.inject)]
    violations += [Violation(f"project-{v.axiom}", v.witness, v.detail)
                   for v in check_morphism(s.project)]

    if exact.rank(s.inject.matrix) != s.module.dim:
        violations.append(Violation(
            "injectivity", ("inject",), "inject has nontrivial kernel"))
    if exact.rank(s.project.matrix) != s.actor.dim:
        violations.append(Violation(
            "surjectivity", ("project",), "project is not onto"))

    project = _sparse_rows(s.project.matrix)
    if any(_image(row, project)
           for row in _sparse_rows(s.inject.matrix).values()):
        violations.append(Violation(
            "exactness", ("project . inject",),
            "image(inject) not contained in kernel(project)"))
    elif (exact.rank(s.inject.matrix)
          != s.total.dim - exact.rank(s.project.matrix)):
        violations.append(Violation(
            "exactness", ("dimensions",),
            "image(inject) is a proper subspace of kernel(project)"))
    return AxiomReport("exact sequence", tuple(violations))


def extract_action_map(s: ActionStructure) -> ActionMap:
    """Recover alpha(X)(w) as the h-part of [[(X,0),(0,w)]].

    Requires the canonical section g -> total (the leading g-block) to be a
    subalgebra embedding and the cross brackets to land in image(inject);
    otherwise the structure does not come from an action and a
    StructureError names the witness.
    """
    report = check_exactness(s)
    if not report.passed:
        raise StructureError(f"not an exact action structure: "
                             f"{report.violations[0]}")
    g, h, total = s.actor, s.module, s.total
    ng, nh = g.dim, h.dim

    for i in range(ng):
        for j in range(ng):
            row = total.algebra.bracket_basis(i, j)
            expected = g.algebra.bracket_basis(i, j)
            if {k: c for k, c in row.items() if k < ng} != expected or \
                    any(k >= ng and c != 0 for k, c in row.items()):
                raise StructureError(
                    "section of g is not a subalgebra: bracket "
                    f"({g.basis.labels[i]}, {g.basis.labels[j]}) "
                    "leaves the g block")

    matrices = []
    for i in range(ng):
        m = exact.zeros(nh, nh)
        for j in range(nh):
            row = total.algebra.bracket_basis(i, ng + j)
            if any(k < ng and c != 0 for k, c in row.items()):
                raise StructureError(
                    "cross bracket has a g component; "
                    "structure is not an action")
            for k, c in row.items():
                m[j][k - ng] = c
        matrices.append(m)
    return ActionMap(g, h, tuple(matrices))
