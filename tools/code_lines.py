"""Count the code lines of Python modules: no docstrings, comments or blank lines.

Usage: ``python tools/code_lines.py PATH...``, each PATH a module or a
directory whose ``*.py`` files are counted (not recursively).  Prints
each module's count and then the total.

A line counts when a token other than a comment, a line break or an
indent sits on it; a token spanning lines (a string, for instance)
counts each line it spans, so a statement over two lines counts two.
A docstring -- a string statement opening a module, class or function
body -- counts nothing.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of the module at ``path``."""
    with path.open("rb") as f:
        lines = {row for tok in tokenize.tokenize(f.readline) if tok.type not in _NOT_CODE
                 for row in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list) -> int:
    paths = []
    for arg in argv:
        p = Path(arg)
        paths += sorted(p.glob("*.py")) if p.is_dir() else [p]
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6,d}  {path}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
