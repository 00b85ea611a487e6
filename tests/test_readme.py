"""The README's "Library use" block runs against the fixtures, so the public
API cannot drift away from its documentation."""

from __future__ import annotations

import re
from pathlib import Path

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
