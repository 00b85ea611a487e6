"""The package has no runtime dependencies: every absolute import names a
standard-library module. Its modules form layers: each imports only modules
of the package that come earlier in ``LAYERS``."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "reconfig"

#: The package's modules, lowest layer first; ``__init__`` may import any of them.
LAYERS = ("errors", "corpus", "modules", "model", "adl", "factory", "runtime", "script", "cli")


def _imports(tree: ast.AST):
    """(line, relative level, dotted name) of each import: ``import a.b`` names ``a.b``,
    ``from a import b`` names ``a.b``, and ``from . import b`` names ``b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = f"{node.module}.{alias.name}" if node.module else alias.name
                yield node.lineno, node.level, name


def _foreign_imports(tree: ast.AST):
    """(line, top-level module) of each absolute import outside the standard library."""
    for line, level, name in _imports(tree):
        top = name.partition(".")[0]
        if level == 0 and top not in sys.stdlib_module_names:
            yield line, top


def _upward_imports(module: str, tree: ast.AST):
    """(line, module) of each package module that ``module`` imports but that does not
    come earlier in ``LAYERS``."""
    for line, level, name in _imports(tree):
        if level == 0:
            package, _, name = name.partition(".")
            if package != "reconfig":
                continue
        name = name.partition(".")[0]
        if name not in LAYERS[:LAYERS.index(module)]:
            yield line, name


def _sources():
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def test_the_package_imports_only_the_standard_library():
    found = [f"{path.name}:{line} imports {name}"
             for path, tree in _sources() for line, name in _foreign_imports(tree)]
    assert found == []


def test_the_import_walk_flags_third_party_modules_and_passes_relative_ones():
    tree = ast.parse("from . import model\nfrom .errors import NotFound\nimport os.path\n"
                     "import numpy as np\nfrom yaml import safe_load\n")
    assert list(_foreign_imports(tree)) == [(4, "numpy"), (5, "yaml")]


def test_each_module_imports_only_earlier_layers():
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)
    found = [f"{path.name}:{line} imports {name}"
             for path, tree in _sources() if path.stem != "__init__"
             for line, name in _upward_imports(path.stem, tree)]
    assert found == []


def test_the_layer_walk_flags_a_module_at_or_above_its_own_layer():
    tree = ast.parse("import os\nfrom . import errors\nfrom .corpus import Pair\n"
                     "from . import runtime\nfrom .model import Role\nimport reconfig.cli\n"
                     "from reconfig import factory\nfrom reconfig.modules import ModuleId\n")
    assert list(_upward_imports("model", tree)) == [(4, "runtime"), (5, "model"), (6, "cli"),
                                                    (7, "factory")]
