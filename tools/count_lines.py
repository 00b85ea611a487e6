"""Count the code lines of a package: lines that are neither blank, comments nor docstrings.

A line counts when some token other than a comment or a line break starts on
it or spans it, and it lies outside every docstring. A docstring is the string
expression that opens a module, a class or a function body. Run it on a
directory, which is walked for ``*.py`` files, or on single files:

    python3 tools/count_lines.py src/reconfig

It prints one number, the total over every file given.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: bytes) -> int:
    """The number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    paths = []
    for arg in map(Path, argv):
        paths.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    print(sum(code_lines(path.read_bytes()) for path in paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
