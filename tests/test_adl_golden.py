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
import sys
from pathlib import Path

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


def outcomes() -> list[str]:
    from reconfig.adl import parse_adl, parse_component_fragment

    sources = [(parse_adl, p.read_text(encoding="utf-8"))
               for p in sorted((FIXTURES / "adl").glob("*.xml"))]
    sources.append((parse_component_fragment, FRAGMENT))
    rng = random.Random(SEED)
    lines = []
    for parse, text in sources:
        lines.append(outcome(parse, text))
        lines.extend(outcome(parse, _mutate(rng, text)) for _ in range(CASES_PER_SOURCE))
    lines.extend(outcome(parse_adl, text) for text in STRUCTURE_CASES)
    return lines


def test_parse_outcomes_match_the_golden_file():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = outcomes()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"case {i}"


if __name__ == "__main__":
    sys.stdout.write("\n".join(outcomes()) + "\n")
