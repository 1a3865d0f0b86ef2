"""Count the code lines of the fedquant package.

    python3 tools/code_lines.py [PACKAGE_DIR]

A code line holds at least one token that is not a comment, and is not
part of a docstring (the string statement that opens a module, class or
function body); blank lines do not count.  Prints each module's count and
the total, for ``src/fedquant`` by default.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the module ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source):
    """The number of code lines in the Python text ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    package = argv[0] if argv else os.path.join(ROOT, "src", "fedquant")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{name:20} {count:6,}")
    print(f"{'total':20} {total:6,}")


if __name__ == "__main__":
    main()
