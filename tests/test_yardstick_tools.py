"""``tools/count_lines.py`` and ``tools/mutants.py`` on small sources, in process: what
counts as a code line, which ``if`` statements are guards, and what a mutant reads."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


count_lines = _tool("count_lines")
mutants = _tool("mutants")

ERRORS = {"ValueError", "KeyError", "NotFound"}


def test_docstrings_comments_and_blank_lines_are_not_code():
    source = b'''"""A module docstring
over two lines."""

# a comment


class Thing:
    """A class docstring."""

    def method(self):
        """A function docstring,
        over two lines."""
        return 1  # a trailing comment


async def later():
    """An async function's docstring."""
'''
    # class Thing:, def method(self):, return 1, async def later():
    assert count_lines.code_lines(source) == 4


def test_every_line_a_statement_spans_counts_and_so_does_a_string_that_is_no_docstring():
    source = b'''x = (1,
     2,
     3)
y = """a string
that is no docstring"""
def f():
    x = 1
    "a string after the first statement"
'''
    assert count_lines.code_lines(source) == 8


def test_the_guards_are_the_ifs_that_raise_or_return_an_error():
    source = b'''def f(x):
    if x < 0:
        raise ValueError(x)
    if x == 0:
        y = 1
        return NotFound(x)
    if x == 1:
        return 1
    if x == 2:
        return len(x)
    if x == 3:
        y = 2
        raise KeyError(x)
    if x == 4:
        print(x)
    if x == 5:
        if y:
            return x
        raise KeyError(x)
    return x
'''
    found = mutants.guards(source, ERRORS)
    # a block that does other work before its raise is a guard too
    assert [(line, start, col) for line, start, col, _, _ in found] == [
        (2, 2, 7), (4, 4, 7), (11, 11, 7), (16, 16, 7)]
    assert [source.splitlines()[line - 1].strip() for line, *_ in found] == [
        b"if x < 0:", b"if x == 0:", b"if x == 3:", b"if x == 5:"]


def test_the_package_refusals_that_do_work_before_they_raise_are_guards():
    errors = mutants.error_names()
    found = set()
    for name in ("adl.py", "corpus.py"):
        source = (mutants.ROOT / mutants.PACKAGE / name).read_bytes()
        lines = source.splitlines()
        found |= {(name, lines[line - 1].strip()) for line, *_ in mutants.guards(source, errors)}
    assert {("adl.py", b"if self.name in seen:"), ("adl.py", b"if tag not in found:"),
            ("corpus.py", b"if not colon:")} <= found


def test_a_mutant_parses_and_has_only_its_guard_test_replaced_by_false():
    source = b'''def f(x, y):
    if (x < 0
            and y < 0):
        raise ValueError(x)
    if y:
        return KeyError(y)
    return x
'''
    tests_of = lambda code: [ast.unparse(node.test) for node in ast.walk(ast.parse(code))
                             if isinstance(node, ast.If)]
    assert tests_of(source) == ["x < 0 and y < 0", "y"]
    first, second = mutants.guards(source, ERRORS)
    assert tests_of(mutants.mutate(source, first)) == ["False", "y"]
    assert tests_of(mutants.mutate(source, second)) == ["x < 0 and y < 0", "False"]
    assert mutants.mutate(source, second) == source.replace(b"if y:", b"if False:")
