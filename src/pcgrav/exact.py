"""Small dense linear algebra over exact rationals (fractions.Fraction).

Dimensions here are tiny (Lie algebra bases, <= a few dozen), so plain
list-of-lists Gaussian elimination is both exact and fast enough.
"""

from __future__ import annotations

import re
from fractions import Fraction

Matrix = list  # list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def matmul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c == 0:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j] != 0:
                    oi[j] += c * bk[j]
    return out


def _row_reduce(work: Matrix, cols: int) -> int:
    """Gauss-Jordan elimination on the first ``cols`` columns, in place.

    Pivot rows end up first, scaled to 1 and cleared above and below;
    returns their count, the rank of that column block.
    """
    rows = len(work)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = ONE / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def rank(m: Matrix) -> int:
    """Row rank by fraction-exact Gaussian elimination (input not modified)."""
    if not m:
        return 0
    return _row_reduce([row[:] for row in m], len(m[0]))


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square fraction matrix (Gauss-Jordan)."""
    n = len(m)
    work = [row[:] + ident_row for row, ident_row in zip(m, identity(n))]
    if _row_reduce(work, n) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in work]


def in_row_span(rows_mat: Matrix, vec: list) -> bool:
    """True if ``vec`` lies in the row span of ``rows_mat`` (exact)."""
    if all(x == 0 for x in vec):
        return True
    if not rows_mat:
        return False
    return rank(rows_mat + [list(vec)]) == rank(rows_mat)


def parse_rational(text) -> Fraction:
    """Parse 'p/q' or integer strings (also accepts plain ints, not bools);
    exactness preserved.  Decimal and exponent strings are refused: a
    ``"1e999999999"`` would build that integer."""
    if isinstance(text, str) and re.fullmatch(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*",
                                              text):
        return Fraction(text)
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    raise TypeError(f"rational must be an int or a 'p/q' string, got {text!r}")


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
