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

import pytest

from conftest import chain_adl, count_calls, single_character_mutations

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

_D = '<definition name="D" version="1">'
#: Whole documents at the edges of the fast match: text or a second comment
#: after a comment, comments and space in and after a closing tag, a closing
#: tag of another element, and text after the root.
DOCUMENT_CASES = [_D + '<!-- a --> x <!-- b --></definition>',
                  _D + '<!-- a --><!-- b -- c ---></definition>',
                  _D + '<!-- a -->\n<!--></definition>',
                  _D + '</definition <!-- c -->>',
                  _D + '</definition\n>\n<!-- trailing -->\n',
                  _D + '</definition><!-- open',
                  _D + '</definition>x',
                  _D + '</component></definition>',
                  _D + '</definition.x>',
                  _D + 'text</definition>',
                  _D + '<component name="c"><content class="K"/></definition></component>',
                  '</definition>' + _D,
                  '<!-- --> <definition name="D" version="1"/>']


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


_SPACE = [" ", "\n", "\t", "\r\n", "  \n    ", "\n\n"]
_BETWEEN = _SPACE + ["<!-- c -->", "\n<!-- two\nlines -->\n", "<!--<a>-->", "<!-- a -- b --->"]


def _generated(rng: random.Random) -> str:
    """A definition in the grammar, laid out with seeded space, comments and
    attribute order, so that every element's ``line:col`` is a fresh case."""

    def tag(name: str, attrs: dict, close: str) -> str:
        items = list(attrs.items())
        rng.shuffle(items)
        body = "".join(f'{rng.choice(_SPACE)}{k}="{v}"' for k, v in items)
        return f"<{name}{body}{rng.choice(['', *_SPACE])}{close}"

    def version(attrs: dict) -> dict:
        return {**attrs, "version": rng.choice(["1", "1.0", "2.0.1"])} if rng.random() < 0.6 \
            else attrs

    def port(i: int) -> str:
        return tag("interface", version({"name": f"p{i}", "role": rng.choice(["client", "server"]),
                                         "signature": rng.choice(["S", "a.b.C"])}), "/>")

    parts = [tag("definition", {"name": "D", "version": "1.0"}, ">")]
    parts += [port(i) for i in range(rng.randint(0, 2))]
    for c in range(rng.randint(0, 4)):
        children = [port(i) for i in range(rng.randint(0, 3))]
        children += [tag("file", version({"name": f"F{f}"}), "/>")
                     for f in range(rng.randint(0, 2))]
        children.insert(rng.randint(0, len(children)),
                        tag("content", version({"class": f"K{c}"}), "/>"))
        parts += [tag("component", {"name": f"c{c}"}, ">"), *children, "</component>"]
        if c:
            parts.append(tag("binding", {"client": f"c{c - 1}.p0", "server": f"c{c}.p1"}, "/>"))
    parts.append(f"</definition{rng.choice(['', *_SPACE])}>")
    return "".join(rng.choice(_BETWEEN) + part for part in parts) + rng.choice(_BETWEEN)


#: The ports, content and files of a ``<component>`` fragment, in the shapes
#: the fixtures and the benchmark's ``add`` fragments give them.
_FRAGMENT_SHAPES = [
    ('<interface name="in" role="server" signature="Sig{k}" version="1.0"/>',
     '<content class="Frag{k}" version="1.0"/>', '<file name="Shared{k}" version="1.0"/>'),
    ('<interface name="s" role="server" signature="Service" version="1.0"/>',
     '<content class="ServerImpl" version="2.0"/>', '<file name="Request" version="1.0"/>'),
    ('<interface name="r" role="client" signature="java.lang.Runnable"/>',
     '<content class="ClientImpl"/>', '<file name="Message"/>'),
    ('<interface name="out" role="client" signature="Sig{k}" version="1"/>',
     '<content class="Impl{k}" version="1.0.0"/>', ""),
]


def _fragment(name: str, shape: int, k: int) -> str:
    """A fragment laid out as ``benchmarks/gen.py``'s ``component_xml`` writes one."""
    port, content, file = (part.format(k=k) for part in _FRAGMENT_SHAPES[shape])
    lines = [f'<component name="{name}">', f"    {port}", f"    {content}"]
    lines += [f"    {file}"] * (k % 3 if file else 0)
    return "\n".join(lines + ["</component>"])


def test_the_fast_match_gives_the_scanner_outcomes(monkeypatch):
    """The walk gives the same outcome with the fast match as shipped and with
    it never matching, so that the scanner reads every element: over the
    golden cases, ``TAG_CASES``, ``DOCUMENT_CASES``, acceptance #6's 10,000
    mutations, generated definitions and fragments ``x0`` to ``x20000``, each
    the whole AST with every position, or the error's class, message and
    position. The scanner reads no tag of a fixture, generated definition or
    fragment."""
    from reconfig import adl

    fig = (FIXTURES / "adl" / "hello.fractal.xml").read_text(encoding="utf-8")
    rng = random.Random(0x1E5)
    generated = [(adl.parse_adl, _generated(rng)) for _ in range(300)]
    fragments = [(adl.parse_component_fragment,
                  _fragment(f"x{n}", n % len(_FRAGMENT_SHAPES), n % 16)) for n in range(20_001)]
    clean = _sources() + generated + fragments
    inputs = clean + cases() + [(adl.parse_adl, text) for text in TAG_CASES + DOCUMENT_CASES] + [
        (adl.parse_component_fragment, '<component name="c" name="d"></component>')] + [
        (adl.parse_adl, text) for text in single_character_mutations(fig, 0xF022, 10_000)]
    scans = Counter()
    count_calls(monkeypatch, adl._Scanner, "read_tag", scans)
    fast = [outcome(parse, text) for parse, text in clean]
    assert scans["read_tag"] == 0, "the scanner read a tag of a fixture or generated document"
    assert all(line.startswith("ok ") for line in fast[-len(fragments):])
    fast += [outcome(parse, text) for parse, text in inputs[len(clean):]]

    monkeypatch.setattr(adl, "_ELEMENT_RE", re.compile(r"(?!)"))
    slow = [outcome(parse, text) for parse, text in inputs]
    assert {line.split()[0] for line in slow} == {"ok", "ParseError", "UnknownAttribute",
                                                  "UnknownElement"}
    for i, (f, s) in enumerate(zip(fast, slow)):
        assert f == s, f"case {i}: {inputs[i][1]!r}"


def test_a_late_refusal_is_read_by_the_scanner_from_that_element_on(monkeypatch):
    """Counted, never timed: in a 2000-component chain with ``<bogus/>`` before
    its last binding, the fast match reads every element up to it, and the
    scanner reads that one element and the space before it."""
    from reconfig import adl
    from reconfig.errors import UnknownElement

    text = chain_adl(2000)
    last = text.rindex("<binding")
    text = text[:last] + "<bogus/>" + text[last:]
    calls = Counter()
    for name in ("read_name", "read_tag"):
        count_calls(monkeypatch, adl._Scanner, name, calls)
    with pytest.raises(UnknownElement) as refused:
        adl.parse_adl(text)
    assert (refused.value.line, refused.value.col, refused.value.tag) == (4002, 1, "bogus")
    assert (calls["read_name"], calls["read_tag"]) == (1, 0)


if __name__ == "__main__":
    sys.stdout.write("\n".join(outcomes()) + "\n")
