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
rows.  Two kernels, the Jacobiator of a basis triple and the Leibniz
defect of ``d`` on a basis pair, check every Jacobi and Leibniz axiom.

An action of g on h is its sum dgla g (+) h: the action axioms are the
sum's axioms on mixed basis triples (:func:`check_action_map`), and
:func:`extract_action_map` accepts a structure only if it is the sum of
the action it reads off.
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


def _jacobiator(a: GradedLieAlgebra, i: int, j: int, k: int) -> dict:
    """[b_i,[b_j,b_k]] - [[b_i,b_j],b_k] - (-1)^{|i||j|} [b_j,[b_i,b_k]]."""
    acc = _bracket(a, {i: ONE}, a.bracket_basis(j, k))
    _add(acc, _bracket(a, a.bracket_basis(i, j), {k: ONE}), -1)
    return _add(acc, _bracket(a, {j: ONE}, a.bracket_basis(i, k)),
                -_sign(a.basis.degrees[i] * a.basis.degrees[j]))


def _leibniz(d: Dgla, i: int, j: int) -> dict:
    """d[b_i,b_j] - [d b_i,b_j] - (-1)^{|i|} [b_i,d b_j]."""
    a, rows = d.algebra, d.differential.rows
    acc = _image(a.bracket_basis(i, j), rows)
    _add(acc, _bracket(a, rows.get(i, {}), {j: ONE}), -1)
    return _add(acc, _bracket(a, {i: ONE}, rows.get(j, {})),
                -_sign(a.basis.degrees[i]))


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
    violations += [Violation("jacobi", (labels[i], labels[j], labels[k]),
                             "graded Jacobi identity fails")
                   for i, j, k in triples if _jacobiator(a, i, j, k)]
    return violations


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

    violations += [Violation("leibniz", (labels[i], labels[j]),
                             "d[x,y] != [dx,y] + (-1)^|x| [x,dy]")
                   for i in range(dim) for j in range(dim)
                   if _leibniz(d, i, j)]
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
    """The action axioms, as the axioms of the sum dgla g (+) h on mixed
    basis triples (x, y in g; v, w in h): bracket degree on (x, w) is the
    degree of alpha(x), Jacobi on (x, y, w) makes alpha a Lie map, Leibniz
    on (x, w) makes it commute with the differentials, and Jacobi on
    (x, v, w) makes alpha(x) a graded derivation of h."""
    total = _action_sum(alpha).total
    a, deg = total.algebra, total.basis.degrees
    lab = alpha.actor.basis.labels + alpha.module.basis.labels
    g, h = range(alpha.actor.dim), range(alpha.actor.dim, total.dim)
    violations = [Violation(
        "action-degree", (lab[x],),
        f"alpha({lab[x]}) is not homogeneous of degree {deg[x]}")
        for x in g for w in h
        if any(deg[k] != deg[x] + deg[w] for k in a.bracket_basis(x, w))]
    violations += [Violation(
        "action-bracket", (lab[x], lab[y]),
        "alpha[x,y] != alpha(x)alpha(y) - (-1)^{|x||y|} alpha(y)alpha(x)")
        for x in g for y in g if any(_jacobiator(a, x, y, w) for w in h)]
    violations += [Violation("action-differential", (lab[x],),
                             "alpha(dx) != [d_h, alpha(x)]")
                   for x in g if any(_leibniz(total, x, w) for w in h)]
    violations += [Violation("action-derivation", (lab[x], lab[v], lab[w]),
                             "alpha(x) is not a graded derivation of [-,-]_h")
                   for x in g for v in h for w in h
                   if _jacobiator(a, x, v, w)]
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


def _action_sum(alpha: ActionMap,
                plus_variant: bool = False) -> ActionStructure:
    """g (+) h with the cross brackets of ``alpha``, unchecked."""
    def cross(i, j):
        return {k: c for k, c in enumerate(alpha.matrices[i][j]) if c != 0}

    return _sum_structure(alpha.actor, alpha.module, cross, plus_variant)


def build_action_dgla(alpha: ActionMap,
                      plus_variant: bool = False) -> ActionStructure:
    """Semidirect-sum dgla on g (+) h from an action map.

    Cross bracket: [[(X,0),(0,w)]] = (0, alpha(X) w), extended to the other
    orientation by graded antisymmetry, i.e. the v-term in
    [[(X,v),(Y,w)]] carries -(-1)^{|X||Y|} alpha(Y)(v).  The sum is
    checked once with :func:`check_dgla`, which covers the action axioms
    (:func:`check_action_map`); the passing report is kept as
    ``total_report``.  A failing sum raises a StructureError naming the
    first action violation if alpha has one, else the sum's first.

    ``plus_variant=True`` instead uses +alpha(Y)(v) in both orientations
    (a symmetric cross term).  The result is *not* a Lie bracket whenever
    alpha != 0; it is kept only so the axiom checker can exhibit the
    antisymmetry witness.  Only alpha is checked for the variant.
    """
    structure = _action_sum(alpha, plus_variant)
    report = None if plus_variant else check_dgla(structure.total)
    if report and report.passed:
        return replace(structure, total_report=report)
    action = check_action_map(alpha)
    if not action.passed:
        raise StructureError(f"invalid action map: {action.violations[0]}")
    if plus_variant:
        return structure
    raise StructureError(
        f"constructed sum fails dgla axioms: {report.violations[0]}")


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
    """Read alpha(X)(w) off the h-part of [[(X,0),(0,w)]], and accept it
    only if ``s.total`` is the sum that alpha builds.

    ``s`` must pass :func:`check_exactness`.  The first bracket or
    differential entry of ``s.total`` that differs from that sum (an h
    part in the g block, a g part in a cross bracket, a (h, g) orientation
    that is not graded antisymmetric, a differential between the blocks)
    raises a StructureError naming its basis labels.
    """
    report = check_exactness(s)
    if not report.passed:
        raise StructureError(f"not an exact action structure: "
                             f"{report.violations[0]}")
    total, ng, nh = s.total, s.actor.dim, s.module.dim
    alpha = ActionMap(s.actor, s.module, tuple(
        [[total.algebra.structure_constant(i, ng + j, ng + k)
          for k in range(nh)] for j in range(nh)] for i in range(ng)))
    rebuilt = _action_sum(alpha).total
    for kind, got, want in (
            ("bracket", total.algebra.brackets, rebuilt.algebra.brackets),
            ("differential",
             {(i,): row for i, row in total.differential.rows.items()},
             {(i,): row for i, row in rebuilt.differential.rows.items()})):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                raise StructureError(
                    f"not the sum of an action: {kind} at "
                    f"{tuple(total.basis.labels[i] for i in key)} differs "
                    "from the sum of the action read off its cross brackets")
    return alpha
