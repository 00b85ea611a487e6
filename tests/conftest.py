from __future__ import annotations

import random
from pathlib import Path

import pytest

from reconfig.adl import parse_adl, validate
from reconfig.corpus import load_corpus
from reconfig.errors import AmbiguousImport
from reconfig.factory import Granularity, instantiate, plan_modules
from reconfig.modules import ModuleManager

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def corpus_path(name: str) -> Path:
    return FIXTURES / "corpora" / name


def adl_path(name: str) -> Path:
    return FIXTURES / "adl" / name


def script_path(name: str) -> Path:
    return FIXTURES / "scripts" / name


def chain_adl(n: int) -> str:
    """The ADL of an ``n``-chain: one ``Push`` port in and one out per primitive, one
    element per line, bound head to tail."""
    port = '<interface name="{}" role="{}" signature="Push" version="1.0"/>'
    parts = ['<definition name="Chain" version="1.0">', port.format("head", "server")]
    for i in range(n):
        parts.append(f'<component name="c{i}">' + port.format("in", "server")
                     + (port.format("out", "client") if i < n - 1 else "")
                     + f'<content class="Impl{i}" version="1.0"/></component>')
    parts.append('<binding client="this.head" server="c0.in"/>')
    parts.extend(f'<binding client="c{i}.out" server="c{i + 1}.in"/>' for i in range(n - 1))
    return "\n".join(parts + ["</definition>"])


def single_character_mutations(text: str, seed: int, count: int,
                               pool: str = '<>/"= \nabczXY0189._-!&;:\'') -> list[str]:
    """``count`` copies of ``text``, each with one seeded character replaced from ``pool``."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        pos = rng.randrange(len(text))
        texts.append(text[:pos] + rng.choice(pool) + text[pos + 1:])
    return texts


def count_calls(patch: pytest.MonkeyPatch, owner, name: str, counts) -> None:
    """Patch ``owner.name`` to add one to ``counts[name]`` on every call."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    patch.setattr(owner, name, counted)


def table_from_index(mgr: ModuleManager, pairs) -> dict:
    """The planned ``{name: (version, provider)}`` table that wires each of ``pairs`` to
    the one live module exporting it, read off ``mgr.exporters_of``.

    Refused unless exactly one module exports each pair: ``AmbiguousImport`` naming the
    exporters when several do, ``LookupError`` when none does.
    """
    table = {}
    for name, version in pairs:
        exporters = mgr.exporters_of((name, version))
        if not exporters:
            raise LookupError(f"no live module exports {name}@{version}")
        if len(exporters) > 1:
            raise AmbiguousImport(name, version, exporters)
        table[name] = (version, exporters[0])
    return table


def build_architecture(adl_name: str, corpus_name: str,
                       granularity: Granularity = Granularity.PER_COMPONENT,
                       mgr: ModuleManager | None = None):
    """Parse, validate, plan, and instantiate a fixture architecture."""
    definition = parse_adl(adl_path(adl_name).read_text(encoding="utf-8"))
    corpus = load_corpus(corpus_path(corpus_name))
    diagnostics = validate(definition, corpus)
    assert diagnostics == [], [d.render() for d in diagnostics]
    plan = plan_modules(definition, granularity, corpus)
    arch = instantiate(definition, plan, mgr or ModuleManager(), corpus)
    return arch, corpus, plan


_acceptance_results: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_results.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _acceptance_results:
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict} {name}")
