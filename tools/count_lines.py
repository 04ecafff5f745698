"""Count the lines of pcgrav's modules in one or more checkouts.

    python3 tools/count_lines.py <checkout>...

For each module of ``<checkout>/src/pcgrav`` and for their total, prints
all lines and code lines, one pair of columns per checkout.  A code line
holds some token that is not a comment and is not part of a docstring (the
string that opens a module, class or function); blank lines, comment lines
and docstring lines are not code.  A module missing from a checkout reads
0.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(all lines, code lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in SKIPPED:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv=None) -> int:
    checkouts = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)]
    if not checkouts:
        print("usage: count_lines.py <checkout>...", file=sys.stderr)
        return 2
    counts = [{path.name: count(path.read_text())
               for path in sorted((root / "src" / "pcgrav").glob("*.py"))}
              for root in checkouts]
    modules = sorted(set().union(*counts))
    rows = [[module, *(n for side in counts
                       for n in side.get(module, (0, 0)))]
            for module in modules]
    rows.append(["total", *(sum(side[m][i] for m in side)
                            for side in counts for i in (0, 1))])
    header = ["module", *(f"{name} {kind}" for root in checkouts
                          for name in [root.resolve().name or str(root)]
                          for kind in ("lines", "code"))]
    widths = [max(len(str(row[i])) for row in [header, *rows])
              for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(width) if i == 0
                        else str(cell).rjust(width)
                        for i, (cell, width) in enumerate(zip(row, widths))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
