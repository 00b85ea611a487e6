"""Golden parse outcomes: mutated ADL texts must parse, or fail, exactly as recorded.

Each case is a fixture ADL (or one ``<component>`` fragment) with 1 to 3
seeded edits, each replacing one character by, or inserting before it, a
token of the fuzz pool. A case's outcome is one line:

- ``ok <sha256>`` over the AST's repr plus every element's ``line:col``;
- ``<ErrorClass> <line>:<col> <detail>`` for a rejected text.

A few hand-written texts that break one structural rule each follow the
mutated cases, since random edits seldom repeat a name exactly.

The recorded file pins the AST, every position and every diagnostic. To
regenerate it (only when a parser change is meant to alter outcomes)::

    PYTHONPATH=src python tests/test_adl_golden.py > tests/fixtures/golden/adl_outcomes.txt
"""

from __future__ import annotations

import hashlib
import random
import re
import sys
from collections import Counter
from pathlib import Path

from conftest import count_calls, single_character_mutations

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden" / "adl_outcomes.txt"

SEED = 0xAD1
CASES_PER_SOURCE = 200
POOL = list('<>/"= \nabczXY0189._-!&;:\'') + ["<!--", "-->", "/>"]

FRAGMENT = """<component name="extra">
    <!-- a late server -->
    <interface name="s" role="server"
               signature="Service" version="1.0"/>
    <content class="ServerImpl" version="2.0"/>
    <file name="Request" version="1.0"/>
</component>
"""

_C = ('<component name="{}"><interface name="p" role="{}" signature="S"/>'
      '<content class="K"/></component>')
STRUCTURE_CASES = [
    '<definition name="D" version="1">' + _C.format("a", "server") + _C.format("a", "client")
    + '</definition>',
    '<!-- the position of this error is pinned at 1:1 -->\n <definition name="a" version="1">'
    + _C.format("a", "server") + '</definition>',
    '<definition name="D" version="1">' + _C.format("a", "client")
    + '<binding client="a.p" server="b.p"/></definition>',
    '<definition name="D" version="1">' + _C.format("a", "client")
    + '\n  <binding client="a.q" server="a.p"/></definition>',
    '<definition name="D" version="1"><interface name="r" role="server" signature="S"/>'
    + _C.format("a", "server") + '<binding client="this.x" server="a.p"/></definition>',
    '<definition name="D" version="1">' + _C.format("a", "server")
    + '<binding client="this.r" server="a.p"/><binding client="a.p" server="ghost.p"/>'
    + '</definition>',
]

#: Tag tails at the edges of the fast match: a repeated, unknown or badly quoted attribute,
#: missing whitespace, odd ends, and values holding '>' or '/'.
_TAGS = ['name="p" name="q" role="server" signature="S"/>',
         'name="p" bogus="1" name="q"/>',
         'name="p"role="server" signature="S"/>',
         'name="p" role = "server" signature="S"/>',
         "name='p' role=\"server\" signature=\"S\"/>",
         'name="p" role="ser&ver" signature="S"/>',
         'name="p" role="server" signature="S/>',
         'name="p" role="server" signature="S" / >',
         'name="p" role="server" signature="S">',
         '\tname="p"\r\nrole="server"  signature="S>/"\n/>',
         'name="p" role="server" signature="S" version="1.0"version="2"/>',
         'name="p" r\u00f4le="server"/>',
         'name="p" role="server" signature="S"']
TAG_CASES = ['<definition name="D" version="1"><interface ' + tail + '</definition>'
             for tail in _TAGS] + [
    '<definition name="D" version="1" version="2"></definition>',
    '<definition name="D" version="1"><component name="c" name="d"></component></definition>',
    '<definition name="D" version="1"><binding client="a.p>" server="b.q"/></definition>',
]


def _positions(ast) -> list[str]:
    elements = [ast] if not hasattr(ast, "components") else \
        [*ast.interfaces, *ast.components, *ast.bindings]
    spots = []
    for element in elements:
        spots.append(f"{element.line}:{element.col}")
        spots.extend(f"{i.line}:{i.col}" for i in getattr(element, "interfaces", ()))
    return spots


def outcome(parse, text: str) -> str:
    from reconfig.errors import AdlError

    try:
        ast = parse(text)
    except AdlError as exc:
        return f"{type(exc).__name__} {exc.line}:{exc.col} {exc.detail}"
    digest = hashlib.sha256(f"{ast!r} {' '.join(_positions(ast))}".encode()).hexdigest()
    return f"ok {digest}"


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text))
        text = text[:pos] + rng.choice(POOL) + text[pos + rng.randint(0, 1):]
    return text


def _sources() -> list:
    from reconfig.adl import parse_adl, parse_component_fragment

    sources = [(parse_adl, p.read_text(encoding="utf-8"))
               for p in sorted((FIXTURES / "adl").glob("*.xml"))]
    sources.append((parse_component_fragment, FRAGMENT))
    return sources


def cases() -> list:
    """The golden file's ``(parse, text)`` cases, in its order."""
    from reconfig.adl import parse_adl

    rng = random.Random(SEED)
    found = []
    for parse, text in _sources():
        found.append((parse, text))
        found.extend((parse, _mutate(rng, text)) for _ in range(CASES_PER_SOURCE))
    found.extend((parse_adl, text) for text in STRUCTURE_CASES)
    return found


def outcomes() -> list[str]:
    return [outcome(parse, text) for parse, text in cases()]


def test_parse_outcomes_match_the_golden_file():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = outcomes()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"case {i}"


def test_the_fast_tag_match_gives_the_step_by_step_outcomes(monkeypatch):
    """``read_tag``'s one-match path and its step-by-step scan agree on every case:
    the golden cases, every fixture ADL, ``TAG_CASES`` and acceptance #6's 10,000
    mutations."""
    from reconfig import adl

    fig = (FIXTURES / "adl" / "hello.fractal.xml").read_text(encoding="utf-8")
    inputs = cases() + [(adl.parse_adl, text) for text in TAG_CASES] + [
        (adl.parse_component_fragment, '<component name="c" name="d"></component>')] + [
        (adl.parse_adl, text) for text in single_character_mutations(fig, 0xF022, 10_000)]
    scans = Counter()
    count_calls(monkeypatch, adl._Scanner, "scan_tag", scans)
    for parse, text in _sources():
        outcome(parse, text)
    assert scans["scan_tag"] == 0, "a well-formed tag left the fast match"
    fast = [outcome(parse, text) for parse, text in inputs]

    monkeypatch.setattr(adl, "_TAG_RE", re.compile(r"(?!)"))
    slow = [outcome(parse, text) for parse, text in inputs]
    assert {line.split()[0] for line in slow} == {"ok", "ParseError", "UnknownAttribute",
                                                  "UnknownElement"}
    for i, (f, s) in enumerate(zip(fast, slow)):
        assert f == s, f"case {i}: {inputs[i][1]!r}"


if __name__ == "__main__":
    sys.stdout.write("\n".join(outcomes()) + "\n")
