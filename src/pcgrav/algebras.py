"""Concrete Lie algebras, subalgebra utilities, and the JSON wire format.

Basis order and sign conventions come from :mod:`pcgrav.conventions`:
Poincare basis is ``P0..P3, J01, J02, J03, J12, J13, J23`` (all degree 0),
with ``[J_ab, P_c] = eta_bc P_a - eta_ac P_b`` and the J-J bracket read
from the tables there.  Rotations ``L1 = -J23, L2 = +J13, L3 = -J12`` satisfy
``[L_i, L_j] = eps_ijk L_k``.
"""

from __future__ import annotations

from fractions import Fraction

from . import exact
from .conventions import (GENERATOR_ALIASES, J_MATS, POINCARE_NAMES,
                          SO31_STRUCTURE, perm_sign)
from .graded import (ActionMap, Dgla, Differential, GradedBasis,
                     GradedLieAlgebra)


class AlgebraFormatError(ValueError):
    """Malformed algebra/action JSON document."""


def _degree0_basis(labels) -> GradedBasis:
    return GradedBasis(tuple(labels), (0,) * len(labels))


def abelian(labels) -> Dgla:
    return Dgla(GradedLieAlgebra(_degree0_basis(labels), {}), Differential({}))


def _eps_brackets() -> dict:
    """[L_i, L_j] = eps_ijk L_k, with L_i at basis index i."""
    brackets = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                k = 3 - i - j
                brackets[(i, j)] = {k: Fraction(perm_sign((i, j, k)))}
    return brackets


def _lorentz_brackets(offset: int = 0) -> dict:
    """[J_p, J_q] = sum_s SO31_STRUCTURE[p, q, s] J_s, J_p at offset + p."""
    return {(offset + p, offset + q): {offset + s: Fraction(int(f))
                                       for s, f in enumerate(row) if f}
            for p, rows in enumerate(SO31_STRUCTURE)
            for q, row in enumerate(rows) if row.any()}


def so3() -> Dgla:
    """Rotation algebra, [L_i, L_j] = eps_ijk L_k, zero differential."""
    return Dgla(GradedLieAlgebra(_degree0_basis(("L1", "L2", "L3")),
                                 _eps_brackets()))


def poincare_algebra() -> GradedLieAlgebra:
    """The 10-dim Poincare algebra in the P/J basis, exact integer constants.

    [J_p, P_c] = sum_a J_MATS[p][a, c] P_a, and the J-J block is
    SO31_STRUCTURE, both read from :mod:`pcgrav.conventions`.
    """
    brackets = {}
    for p, jmat in enumerate(J_MATS):
        for c in range(4):
            row = {a: Fraction(int(x)) for a, x in enumerate(jmat[:, c]) if x}
            if row:
                brackets[(4 + p, c)] = row
                brackets[(c, 4 + p)] = {a: -x for a, x in row.items()}
    brackets.update(_lorentz_brackets(offset=4))
    return GradedLieAlgebra(_degree0_basis(POINCARE_NAMES), brackets)


def poincare_dgla() -> Dgla:
    return Dgla(poincare_algebra(), Differential({}))


def poincare_coefficients(name: str) -> list:
    """Coefficient vector (exact) of a named generator, aliases included."""
    vec = [Fraction(0)] * 10
    if name in POINCARE_NAMES:
        vec[POINCARE_NAMES.index(name)] = Fraction(1)
        return vec
    try:
        combo = GENERATOR_ALIASES[name]
    except KeyError:
        raise KeyError(f"unknown Poincare generator {name!r}") from None
    for base, c in combo.items():
        vec[POINCARE_NAMES.index(base)] = Fraction(c)
    return vec


def closure_check(generators) -> bool:
    """True if the span of Poincare coefficient vectors closes under brackets."""
    p = poincare_algebra()
    rows = [[Fraction(v) for v in g] for g in generators]
    for g in rows:
        if len(g) != p.dim:
            raise ValueError("generators must be Poincare coefficient vectors")
    for a in rows:
        for b in rows:
            if not exact.in_row_span(rows, p.bracket_eval(a, b)):
                return False
    return True


def vector_representation_so3() -> ActionMap:
    """so(3) acting on abelian R^3 by cross products."""
    g = so3()
    h = abelian(("e1", "e2", "e3"))
    mats = []
    for i in range(3):
        m = exact.zeros(3, 3)
        for j in range(3):
            for k in range(3):
                s = perm_sign((i, j, k))
                if s:
                    m[j][k] = Fraction(s)
        mats.append(m)
    return ActionMap(g, h, tuple(mats))


def so31_dgla() -> Dgla:
    """Lorentz algebra so(3,1) in the J-pair basis, zero differential."""
    return Dgla(GradedLieAlgebra(_degree0_basis(POINCARE_NAMES[4:]),
                                 _lorentz_brackets()))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------
#
# Algebra document:
#   { "basis": [{"label": str, "degree": int}],
#     "brackets": [{"i": label, "j": label,
#                   "out": [{"k": label, "c": "p/q"}]}],
#     "differential": [{"i": label, "out": [{"k": label, "c": "p/q"}]}] }
# Rationals are strings "p/q" (plain integers also accepted).  Brackets are
# literal: any (i, j) pair not listed is zero, so a well-formed file lists
# both orientations of each nonzero bracket.
#
# Action document (for `algebra action`):
#   { "action": [{"x": g_label,
#                 "rows": [{"i": h_label, "out": [{"k": h_label, "c": "p/q"}]}]}] }
# A key not shown in these layouts is refused, naming its path.

def _known_keys(doc: dict, known: tuple, path: str = "") -> None:
    """Refuse a key outside ``known``: a misspelt one would read as missing."""
    for key in doc:
        if key not in known:
            raise AlgebraFormatError(f"{path}{key}: unknown key; known: "
                                     f"{', '.join(known)}")


def _objects(items, path: str, known: tuple) -> list:
    """``items`` as a list of objects with keys among ``known``; the first
    that is not is an AlgebraFormatError naming its path."""
    if not isinstance(items, list):
        raise AlgebraFormatError(f"{path}: must be a list, got {items!r}")
    for n, item in enumerate(items):
        if not isinstance(item, dict):
            raise AlgebraFormatError(
                f"{path}[{n}]: must be an object, got {item!r}")
        _known_keys(item, known, f"{path}[{n}].")
    return items


def _label(index, item, key, path):
    """Basis index of ``item[key]``; an unknown label names the path."""
    try:
        return index[item[key]]
    except (KeyError, TypeError):
        raise AlgebraFormatError(
            f"{path}.{key}: unknown basis label {item.get(key)!r}") from None


def _parse_out(entries, index, path):
    row = {}
    for n, entry in enumerate(_objects(entries, f"{path}.out", ("k", "c"))):
        k = _label(index, entry, "k", f"{path}.out[{n}]")
        try:
            row[k] = exact.parse_rational(entry["c"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise AlgebraFormatError(
                f"{path}.out[{n}].c: bad coefficient: {e}") from None
    return row


def dgla_from_json(doc) -> Dgla:
    if not isinstance(doc, dict) or "basis" not in doc:
        raise AlgebraFormatError("document must be an object with a 'basis' key")
    _known_keys(doc, ("basis", "brackets", "differential"))
    labels, degrees = [], []
    for n, b in enumerate(_objects(doc["basis"], "basis",
                                   ("label", "degree"))):
        label, degree = b.get("label"), b.get("degree")
        if not isinstance(label, str) or label in labels:
            raise AlgebraFormatError(f"basis[{n}].label: must be a string "
                                     f"not used before, got {label!r}")
        if isinstance(degree, bool) or not isinstance(degree, int):
            raise AlgebraFormatError(
                f"basis[{n}].degree: must be an integer, got {degree!r}")
        labels.append(label)
        degrees.append(degree)
    basis = GradedBasis(tuple(labels), tuple(degrees))
    index = {lab: n for n, lab in enumerate(labels)}

    brackets = {}
    for n, item in enumerate(_objects(doc.get("brackets", []), "brackets",
                                      ("i", "j", "out"))):
        path = f"brackets[{n}]"
        key = (_label(index, item, "i", path), _label(index, item, "j", path))
        brackets[key] = _parse_out(item.get("out", []), index, path)
    rows = {}
    for n, item in enumerate(_objects(doc.get("differential", []),
                                      "differential", ("i", "out"))):
        path = f"differential[{n}]"
        rows[_label(index, item, "i", path)] = _parse_out(
            item.get("out", []), index, path)
    return Dgla(GradedLieAlgebra(basis, brackets), Differential(rows))


def action_from_json(doc, actor: Dgla, module: Dgla) -> ActionMap:
    if not isinstance(doc, dict) or "action" not in doc:
        raise AlgebraFormatError("document must be an object with an 'action' key")
    _known_keys(doc, ("action",))
    gidx = {lab: n for n, lab in enumerate(actor.basis.labels)}
    hidx = {lab: n for n, lab in enumerate(module.basis.labels)}
    mats = [exact.zeros(module.dim, module.dim) for _ in range(actor.dim)]
    for n, item in enumerate(_objects(doc["action"], "action",
                                      ("x", "rows"))):
        x = _label(gidx, item, "x", f"action[{n}]")
        rows = _objects(item.get("rows", []), f"action[{n}].rows",
                        ("i", "out"))
        for r, rowspec in enumerate(rows):
            path = f"action[{n}].rows[{r}]"
            i = _label(hidx, rowspec, "i", path)
            for k, c in _parse_out(rowspec.get("out", []), hidx,
                                   path).items():
                mats[x][i][k] = c
    return ActionMap(actor, module, tuple(mats))
