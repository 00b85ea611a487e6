"""Golden state dumps: ``reconfig plan`` output and ``report()`` bytes, as recorded.

The recorded file has three parts:

- ``plan <adl> <corpus> <granularity>``: the stdout of ``reconfig plan`` for
  every fixture ADL, with every fixture corpus it validates against, at both
  granularities;
- ``report <adl> <corpus> <granularity>``: ``report()`` right after building
  the same architectures (or the error class when the build is refused);
- ``op <n> <command> -> <outcome> <sha256>``: a seeded sequence of swap, add,
  remove, bind, unbind and rebind operations on ``hello_v1.fractal.xml`` with
  the ``hello_swap`` corpus, refused ones included, each followed by the
  sha256 of ``report()`` after it.

The file pins module ids, imports, wiring and links across refactorings of
the planner and the runtime. To regenerate it (only when a change is meant to
alter that state)::

    PYTHONPATH=src python tests/test_reports_golden.py > tests/fixtures/golden/reports.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden" / "reports.txt"

SEED = 0x5EC
OPS = 300
GRANULARITIES = ("per-component", "single")

_SERVER = ('<component name="{name}"><interface name="s" role="server" signature="Service" '
           'version="1.0"/><content class="ServerImpl" version="{version}"/>{files}</component>')
_CLIENT = ('<component name="{name}"><interface name="r" role="server" '
           'signature="java.lang.Runnable"/><interface name="s" role="client" '
           'signature="Service" version="1.0"/><content class="ClientImpl" version="1.0"/>'
           '{files}</component>')
_FILES = ("", '<file name="Request" version="1.0"/>', '<file name="ServerImpl" version="1.0"/>',
          '<file name="ServerImpl" version="2.0"/>')


def _builds():
    from reconfig.adl import parse_adl, validate
    from reconfig.corpus import load_corpus

    for adl in sorted((FIXTURES / "adl").glob("*.xml")):
        definition = parse_adl(adl.read_text(encoding="utf-8"))
        for corpus_dir in sorted((FIXTURES / "corpora").iterdir()):
            corpus = load_corpus(corpus_dir)
            if validate(definition, corpus):
                continue
            for granularity in GRANULARITIES:
                yield adl, corpus_dir, definition, corpus, granularity


def _build_lines() -> list[str]:
    from reconfig.cli import main
    from reconfig.factory import instantiate, parse_granularity, plan_modules
    from reconfig.modules import ModuleManager

    plans, reports = [], []
    for adl, corpus_dir, definition, corpus, granularity in _builds():
        head = f"{adl.name} {corpus_dir.name} {granularity}"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["plan", str(adl), "--corpus", str(corpus_dir),
                         "--granularity", granularity])
        plans.append(f"plan {head} exit={code}")
        plans.extend(out.getvalue().splitlines())
        try:
            plan = plan_modules(definition, parse_granularity(granularity), corpus)
            text = instantiate(definition, plan, ModuleManager(), corpus).report()
        except Exception as exc:
            text = f"refused {type(exc).__name__}\n"
        reports.append(f"report {head}")
        reports.extend(text.splitlines())
    return plans + reports


def _command(rng: random.Random, arch, serial: int) -> tuple[str, tuple]:
    """Draw one operation from the architecture's current state."""
    prims = sorted(n for n, c in arch.components.items() if c is not arch.root)
    names = prims + [arch.root.name, "ghost"]
    ports = [p for n in prims for p in arch.components[n].interfaces]
    clients = [str(p) for p in ports if p.role.value == "client"] or ["ghost.s"]
    servers = [str(p) for p in ports if p.role.value == "server"] + ["ghost.s"]
    kind = rng.choice(["swap", "swap", "add", "add", "remove", "bind", "unbind", "rebind"])
    if kind == "swap":
        cls = rng.choice(["ServerImpl", "ServerImpl", "ClientImpl", "Ghost"])
        return kind, (rng.choice(names), cls, rng.choice(["1.0", "2.0", "x.y"]))
    if kind == "add":
        name = rng.choice(prims) if rng.random() < 0.15 else f"x{serial}"
        template = rng.choice([_SERVER, _SERVER, _CLIENT])
        return kind, (template.format(name=name, version=rng.choice(["1.0", "2.0"]),
                                      files=rng.choice(_FILES)),)
    if kind == "remove":
        return kind, (rng.choice(names),)
    if kind == "unbind":
        return kind, (rng.choice(clients),)
    return kind, (rng.choice(clients), rng.choice(servers))


def _op_lines() -> list[str]:
    from reconfig import runtime
    from reconfig.adl import parse_component_fragment

    from conftest import build_architecture

    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    rng = random.Random(SEED)
    run = {
        "swap": lambda comp, cls, version: runtime.swap_implementation(
            arch, comp, (cls, version), corpus),
        "add": lambda text: runtime.add_component(arch, parse_component_fragment(text), corpus),
        "remove": lambda name: runtime.remove_component(arch, name),
        "bind": lambda c, s: runtime.bind_ports(arch, c, s),
        "unbind": lambda c: runtime.unbind_port(arch, c),
        "rebind": lambda c, s: runtime.rebind(arch, c, s),
    }
    lines = []
    for n in range(OPS):
        kind, args = _command(rng, arch, n)
        try:
            run[kind](*args)
            outcome = "ok"
        except Exception as exc:
            outcome = type(exc).__name__
        digest = hashlib.sha256(arch.report().encode()).hexdigest()
        lines.append(f"op {n} {kind} {' '.join(args)} -> {outcome} {digest}")
    return lines


def golden_lines() -> list[str]:
    return _build_lines() + _op_lines()


def test_plans_and_reports_match_the_golden_file():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"line {i}"


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    sys.stdout.write("\n".join(golden_lines()) + "\n")
