"""The package formats strings with f-strings and ``str.format``, never ``%``.

A ``VersionTag`` is a tuple, so ``"%s" % tag`` would take the tag for its
argument tuple: it prints ``1`` for ``1.0`` and raises for ``1.2``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "reconfig"


def _percent_formats(tree: ast.AST) -> list[int]:
    """Line of every ``%`` whose left side is a string literal."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and isinstance(node.left, ast.Constant) and isinstance(node.left.value, str)]


def test_the_check_sees_percent_formatting():
    assert _percent_formats(ast.parse('a = "%s" % v\nb = n % 2\nc = "v%d" "x" % (1,)\n')) == [1, 3]


def test_the_package_has_no_percent_string_formatting():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in _percent_formats(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
