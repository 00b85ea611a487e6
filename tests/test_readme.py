"""The README's "Library use" block runs against the fixtures, and the names it
imports from ``reconfig`` are exactly what the package root exports, so the
public API cannot drift away from its documentation."""

from __future__ import annotations

import ast
import re
from importlib.util import find_spec
from pathlib import Path
from types import ModuleType

import reconfig

from conftest import adl_path, corpus_path

README = Path(__file__).parent.parent / "README.md"


def _library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_readme_library_use_block_runs():
    code = _library_use_block()
    for placeholder, path in (('"app.fractal.xml"', adl_path("hello_v1.fractal.xml")),
                              ('"corpus/"', corpus_path("hello_swap"))):
        assert code.count(placeholder) == 1, placeholder
        code = code.replace(placeholder, repr(str(path)))
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["record"].component == "server"


def test_the_package_root_exports_exactly_the_names_the_block_imports():
    imported = {alias.name for node in ast.walk(ast.parse(_library_use_block()))
                if isinstance(node, ast.ImportFrom) and node.module == "reconfig"
                for alias in node.names}
    exported = {name for name, value in vars(reconfig).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == {name for name in imported if find_spec(f"reconfig.{name}") is None}
