"""The package has no runtime dependencies: every absolute import names a
standard-library module."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "reconfig"


def _foreign_imports(tree: ast.AST):
    """(line, module) of each absolute import outside the standard library."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, name


def test_the_package_imports_only_the_standard_library():
    found = [f"{path.name}:{line} imports {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in _foreign_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_import_walk_flags_third_party_modules_and_passes_relative_ones():
    tree = ast.parse("from . import model\nfrom .errors import NotFound\nimport os.path\n"
                     "import numpy as np\nfrom yaml import safe_load\n")
    assert list(_foreign_imports(tree)) == [(4, "numpy"), (5, "yaml")]
