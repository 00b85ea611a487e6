"""No memo outlives the call that made it.

A parse may reuse what it read earlier in the same call (``load_corpus``'s
``ref:`` and ``method:`` values, a ``_Scanner``'s leaves), but nothing read
survives the call: each ``reconfig`` command is its own process, so a table
kept at module or class level would only make a second call in one process
look cheaper than a command is. The module-level and class-level ``dict``,
``list`` and ``set`` bindings of the package are exactly its constant tables
plus ``VersionTag``'s intern table, and ``functools.cache``/``lru_cache`` are
not used.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "reconfig"
TABLES = {"_KNOWN_ATTRS", "_CHILDREN", "_LEAVES", "_CONTAINERS", "_KINDS", "_ACTIONS",
          "VersionTag._interned"}
_CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
_CACHES = {"cache", "lru_cache"}


def _is_container(node) -> bool:
    if isinstance(node, _CONTAINER_NODES):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in _CONTAINER_CALLS
    return False


def _bindings(body, prefix: str = "") -> list[str]:
    """Names bound to a container at this level of ``body`` (a module's or a class's),
    inside its ``if``/``try``/``with`` blocks too, and, recursively, in each class it
    defines; plus ``function(default)`` for each container a function takes as a
    default argument, which lives as long as the function."""
    found = []
    for node in body:
        if isinstance(node, ast.ClassDef):
            found += _bindings(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            found += [f"{prefix}{node.name}({ast.unparse(d)})"
                      for d in defaults if _is_container(d)]
            found += [name for name in _bindings(node.body, f"{prefix}{node.name}.")
                      if name.endswith(")")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            if node.value is not None and _is_container(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [prefix + ast.unparse(t) for t in targets]
        else:
            for block in ("body", "orelse", "finalbody", "handlers"):
                found += _bindings(getattr(node, block, []), prefix)
    return found


def _cache_uses(tree: ast.AST) -> list[int]:
    """Line of every use of ``functools.cache``/``lru_cache``, by attribute or import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _CACHES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools" \
                and any(alias.name in _CACHES for alias in node.names):
            lines.append(node.lineno)
    return lines


def test_the_scan_sees_a_process_wide_memo():
    tree = ast.parse("_MEMO = {}\n_SEEN: set = set()\nclass C:\n    _cache = []\n"
                     "    def m(self, memo=dict()):\n        self.memo = {}\n"
                     "if True:\n    _HIDDEN = [1]\n"
                     "def f(key, *, seen=set()):\n    local = {}\n"
                     "    def g(x=[]):\n        pass\n")
    assert _bindings(tree.body) == ["_MEMO", "_SEEN", "C._cache", "C.m(dict())", "_HIDDEN",
                                    "f(set())", "f.g([])"]
    uses = ast.parse("import functools\nfrom functools import lru_cache\n"
                     "@functools.cache\ndef f(): pass\n")
    assert _cache_uses(uses) == [2, 3]


def test_the_only_module_and_class_tables_are_the_constant_ones():
    found = {f"{path.name}:{name}"
             for path in sorted(SRC.glob("*.py"))
             for name in _bindings(ast.parse(path.read_text(encoding="utf-8")).body)}
    assert {entry.split(":", 1)[1] for entry in found} == TABLES, sorted(found)
    assert len(found) == len(TABLES), sorted(found)


def test_the_package_uses_no_functools_cache():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in _cache_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
