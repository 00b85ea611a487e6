"""The cyclic collector is the CLI's business alone.

``reconfig.cli`` pauses the collector during set-up and freezes what set-up
built; no library module may touch the collector, and the CLI may only read
its state, switch it off and on, freeze and unfreeze. A ``gc.collect`` or a
new threshold would change every caller's process, so neither is allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reconfig"
ALLOWED = {"isenabled", "disable", "enable", "freeze", "unfreeze", "get_freeze_count"}


def _gc_uses(path: Path) -> list[tuple[int, str]]:
    """``(line, what)`` for each import of ``gc`` and each use of the name ``gc``:
    ``gc.<attr>``, or a bare ``gc`` that is not the base of an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bases = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses += [(node.lineno, f"import gc as {a.asname}" if a.asname else "import gc")
                     for a in node.names if a.name == "gc"]
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            uses.append((node.lineno, "from gc import"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "gc":
            uses.append((node.lineno, f"gc.{node.attr}"))
        elif isinstance(node, ast.Name) and node.id == "gc" and id(node) not in bases:
            uses.append((node.lineno, "gc"))
    return sorted(uses)


def test_no_library_module_names_the_collector():
    named = {path.name: _gc_uses(path) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "cli.py"}
    assert {name: uses for name, uses in named.items() if uses} == {}


def test_the_cli_only_switches_and_freezes_the_collector():
    uses = _gc_uses(PACKAGE / "cli.py")
    allowed = {"import gc"} | {f"gc.{name}" for name in ALLOWED}
    assert any(what.startswith("gc.") for _, what in uses)
    assert [(line, what) for line, what in uses if what not in allowed] == []
