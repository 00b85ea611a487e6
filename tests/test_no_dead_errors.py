"""Every error the taxonomy defines is one the package raises: a class that nothing
constructs is an error no caller can meet, so it goes with the code that raised it."""

from __future__ import annotations

import ast
from pathlib import Path

from reconfig import errors

SRC = Path(__file__).parent.parent / "src" / "reconfig"
BASES = {errors.ReconfigError, errors.AdlError}


def _constructed_names() -> set[str]:
    """The name of every class or function called anywhere in the package but ``errors.py``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                found.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    return found


def test_every_concrete_error_is_constructed_outside_the_taxonomy():
    concrete = sorted(name for name, value in vars(errors).items()
                      if isinstance(value, type) and issubclass(value, errors.ReconfigError)
                      and value.__module__ == errors.__name__ and value not in BASES)
    assert len(concrete) > 30
    assert [name for name in concrete if name not in _constructed_names()] == []
