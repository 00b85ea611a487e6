"""Acceptance suite: one test per release criterion.

Each test prints nothing on its own; the conftest summary hook reports one
PASS/FAIL line per criterion at the end of the run.
"""

from __future__ import annotations

import random
import time

import pytest

from reconfig.adl import parse_adl, validate
from reconfig.corpus import (
    CorpusStore,
    MethodSig,
    TypeDef,
    TypeKind,
    TypeRef,
    VersionTag,
    load_corpus,
)
from reconfig.cli import main as cli_main
from reconfig.errors import (
    AdlError,
    CrossBindingExists,
    DuplicateComponent,
    GranularityForbidsSwap,
    InstantiationError,
    MissingMethod,
    NotAPrimitive,
    ReconfigError,
    TypeMismatch,
    UnknownComponent,
    UnknownPort,
    UnresolvableExport,
)
from reconfig.factory import Granularity, instantiate, plan_modules
from reconfig.modules import (
    ModuleManager,
    replay_live_set,
    same_type,
)
from reconfig import runtime

from conftest import adl_path, build_architecture, corpus_path, script_path

V = VersionTag

FIG_TEXT = adl_path("hello.fractal.xml").read_text(encoding="utf-8")


# -- criterion 1: reference architecture round trip ------------------------------

def test_acceptance_1_reference_architecture_round_trip():
    started = time.perf_counter()

    definition = parse_adl(FIG_TEXT)
    corpus = load_corpus(corpus_path("hello"))
    assert validate(definition, corpus) == []

    plan = plan_modules(definition, Granularity.PER_COMPONENT, corpus)
    assert len(plan.resources) == 5
    assert len(plan.infos) == 3

    arch = instantiate(definition, plan, ModuleManager(), corpus)
    assert runtime.invoke(arch, "HelloWorld", "r", "run") is None

    # properly nested, three deep, three distinct context modules
    depth = max_depth = 0
    modules = []
    for event in arch.trace:
        if event.kind == runtime.ENTER:
            depth += 1
            max_depth = max(max_depth, depth)
            modules.append(event.args[1])
        elif event.kind == runtime.EXIT:
            depth -= 1
            assert depth >= 0
    assert depth == 0
    assert max_depth == 3
    assert len(set(modules)) == 3

    assert time.perf_counter() - started < 1.0


# -- criterion 2: exchanged-class scenarios ------------------------------------

def test_acceptance_2_exchange_scenarios(capsys):
    # (a) the exchanged type is visible in the interface signature: shared
    code = cli_main(["run", str(adl_path("push_shared.fractal.xml")),
                     str(script_path("push_shared.script")),
                     "--corpus", str(corpus_path("pushshared"))])
    assert code == 0
    # (b) hidden behind object with private copies: rejected at the receiver
    code = cli_main(["run", str(adl_path("push_opaque.fractal.xml")),
                     str(script_path("push_opaque.script")),
                     "--corpus", str(corpus_path("pushopaque"))])
    assert code == 0
    out = capsys.readouterr().out
    assert "error TypeMismatch" in out
    # (c) declaring the class shared on both components flips (b) to ok
    code = cli_main(["run", str(adl_path("push_opaque_file.fractal.xml")),
                     str(script_path("push_opaque_file.script")),
                     "--corpus", str(corpus_path("pushopaque"))])
    assert code == 0

    # the mismatch names the class and both defining modules
    arch, _, _ = build_architecture("push_opaque.fractal.xml", "pushopaque")
    sender, receiver = arch.component("sender"), arch.component("receiver")
    value = runtime.make_value(arch, sender, "Message")
    with pytest.raises(TypeMismatch) as exc:
        runtime.invoke(arch, "sender", "p", "push", [value])
    assert exc.value.type_name == "Message"
    wiring_of = lambda comp: arch.mgr.module(comp.info_module).wiring["Message"]
    assert exc.value.left_module == wiring_of(sender)
    assert exc.value.right_module == wiring_of(receiver)
    assert exc.value.left_module != exc.value.right_module


# -- criterion 3: identity property suite ----------------------------------------

def _random_graph_spec(rng: random.Random):
    """Up to 15 (name, version) pairs partitioned over up to 6 resource modules."""
    pairs = sorted({(f"T{rng.randrange(6)}", str(rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 15))})[:15]
    index = {}
    for name, version in pairs:
        tag = V(version)
        index[(name, tag)] = TypeDef(name, tag, TypeKind.CLASS, (), ())
    corpus = CorpusStore(corpus_path("hello"), index)

    modules: list[list[tuple[str, str]]] = []
    for pair in rng.sample(pairs, len(pairs)):
        slots = [m for m in modules if all(n != pair[0] for n, _ in m)]
        if slots and rng.random() < 0.8:
            rng.choice(slots).append(pair)
        else:
            modules.append([pair])
    return corpus, pairs, modules


def _build_graph(corpus, modules, order):
    mgr = ModuleManager()
    owner_of = {}
    for idx in order:
        mid = mgr.create_resource_module(
            [(n, V(v)) for n, v in modules[idx]], corpus)
        for pair in modules[idx]:
            owner_of[pair] = (idx, mid)
    return mgr, owner_of


def test_acceptance_3_identity_properties_over_1000_graphs():
    rng = random.Random(0x1D2026)
    started = time.perf_counter()
    for _ in range(1000):
        corpus, pairs, modules = _random_graph_spec(rng)
        order = list(range(len(modules)))
        mgr, owner_of = _build_graph(corpus, modules, order)

        names = sorted({n for n, _ in pairs})
        info_specs = []
        for _ in range(rng.randint(1, 4)):
            chosen_names = rng.sample(names, rng.randint(1, len(names)))
            imports = []
            for name in chosen_names:
                version = rng.choice([v for n, v in pairs if n == name])
                imports.append((name, version))
            info_specs.append(imports)

        loaded = []
        wiring_by_fingerprint = []
        for imports in info_specs:
            info = mgr.create_info_module([(n, V(v)) for n, v in imports])
            wiring = mgr.module(info).wiring
            wiring_by_fingerprint.append(
                {name: owner_of[(name, version)][0] for name, version in imports})
            for name, version in imports:
                # cache idempotence: k loads, k pairwise identical types
                first = mgr.load_type(info, name)
                for _ in range(2):
                    assert same_type(first, mgr.load_type(info, name))
                # brute-force oracle: search every exporter directly
                exporters = [m.id for m in mgr.resource_modules()
                             if m.exports_pair(name, V(version))]
                assert len(exporters) == 1
                assert wiring[name] == exporters[0] == owner_of[(name, version)][1]
                loaded.append(first)

        sample = loaded[:6]
        for a in sample:  # equivalence laws
            assert same_type(a, a)
            for b in sample:
                assert same_type(a, b) == same_type(b, a)
                assert same_type(a, b) == ((a.name, a.defined_by) == (b.name, b.defined_by))
                for c in sample:
                    if same_type(a, b) and same_type(b, c):
                        assert same_type(a, c)

        # resolution determinism: permuted module insertion, identical wiring
        rng.shuffle(order)
        mgr2, owner2 = _build_graph(corpus, modules, order)
        for imports, fingerprint in zip(info_specs, wiring_by_fingerprint):
            info2 = mgr2.create_info_module([(n, V(v)) for n, v in imports])
            wiring2 = mgr2.module(info2).wiring
            got = {name: next(idx for (n, v), (idx, mid) in owner2.items()
                              if n == name and mid == wiring2[name])
                   for name, _ in imports}
            assert got == fingerprint
    assert time.perf_counter() - started < 10.0


# -- criterion 4: hot swap ---------------------------------------------------------

def test_acceptance_4_hot_swap_suite():
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    old = arch.component("server").content
    pre_bindings = list(arch.bindings)
    assert all(chk.ok for _, chk in arch.binding_checks())

    record = runtime.swap_implementation(arch, "server", ("ServerImpl", "2.0"), corpus)

    returned = runtime.invoke(arch, "client", "s", "handler")
    assert returned.rt_type.defined_by == record.new_module

    # the old defined type is still live and distinct from the new one
    assert record.old_content is old
    assert old.defined_by in arch.mgr.live_ids()
    assert old.definition.version == V("1.0")
    assert not same_type(old, record.new_content)

    # every pre-swap binding still checks out
    assert pre_bindings == arch.bindings
    assert all(chk.ok for _, chk in arch.binding_checks())

    single, single_corpus, _ = build_architecture(
        "hello_v1.fractal.xml", "hello_swap", Granularity.SINGLE_LOADER)
    with pytest.raises(GranularityForbidsSwap):
        runtime.swap_implementation(single, "server", ("ServerImpl", "2.0"), single_corpus)


# -- criterion 5: reconfiguration atomicity ---------------------------------------

def _drop(corpus: CorpusStore, name: str, version: str) -> CorpusStore:
    index = {(td.name, td.version): td for td in corpus.entries()
             if (td.name, td.version) != (name, V(version))}
    return CorpusStore(corpus.root, index)


def _replace(corpus: CorpusStore, td: TypeDef) -> CorpusStore:
    index = {(t.name, t.version): t for t in corpus.entries()}
    index[(td.name, td.version)] = td
    return CorpusStore(corpus.root, index)


def test_acceptance_5_atomicity_of_failed_reconfigurations():
    rng = random.Random(0xA70)
    corpus = load_corpus(corpus_path("hello_swap"))
    definition = parse_adl(adl_path("hello_v1.fractal.xml").read_text(encoding="utf-8"))
    plan = plan_modules(definition, Granularity.PER_COMPONENT, corpus)

    sabotages = [
        ("UnresolvableExport", lambda: _drop(corpus, "ServerImpl", "1.0")),
        ("UnresolvableExport", lambda: _drop(corpus, "Request", "1.0")),
        ("MissingMethod", lambda: _replace(corpus, TypeDef(
            "ServerImpl", V("1.0"), TypeKind.CLASS,
            (TypeRef("Service", V("1.0")), TypeRef("Request", V("1.0"))), ()))),
        ("ContentNotAClass", lambda: _replace(corpus, TypeDef(
            "ServerImpl", V("1.0"), TypeKind.INTERFACE,
            (TypeRef("Service", V("1.0")), TypeRef("Request", V("1.0"))),
            (MethodSig("push", ("Request",), "void"), MethodSig("handler", (), "ServerImpl"))))),
    ]

    checked = 0
    for _ in range(200):
        mgr = ModuleManager()
        arch = instantiate(definition, plan, mgr, corpus)
        pre_live = mgr.live_ids()
        pre_report = arch.report()
        kind = rng.randrange(4)
        if kind == 0:  # failure-injected instantiate on the same manager
            code, sabotage = rng.choice(sabotages)
            with pytest.raises(InstantiationError) as exc:
                instantiate(definition, plan, mgr, sabotage())
            assert exc.value.code == code
        elif kind == 1:  # failure-injected rebind
            target = rng.choice(["server.ghost", "nosuch.s", "client.r", "client.s"])
            with pytest.raises(ReconfigError) as exc:
                runtime.rebind(arch, "client.s", target)
            assert exc.type in (UnknownPort, UnknownComponent, ReconfigError, TypeMismatch) \
                or exc.value.code == "RoleError"
        elif kind == 2:  # failure-injected swap
            case = rng.randrange(3)
            if case == 0:
                with pytest.raises(UnresolvableExport):
                    runtime.swap_implementation(arch, "server", ("ServerImpl", "9.9"), corpus)
            elif case == 1:
                sparse = _replace(corpus, TypeDef(
                    "ServerImpl", V("3.0"), TypeKind.CLASS,
                    (TypeRef("Service", V("1.0")),), ()))
                with pytest.raises(MissingMethod):
                    runtime.swap_implementation(arch, "server", ("ServerImpl", "3.0"), sparse)
            else:
                with pytest.raises(NotAPrimitive):
                    runtime.swap_implementation(arch, "HelloWorld", ("ServerImpl", "2.0"), corpus)
        else:  # failure-injected add/remove
            case = rng.randrange(3)
            if case == 0:
                from reconfig.adl import parse_component_fragment
                dup = parse_component_fragment(
                    '<component name="server">'
                    '<content class="ServerImpl" version="1.0"/></component>')
                with pytest.raises(DuplicateComponent):
                    runtime.add_component(arch, dup, corpus)
            elif case == 1:
                with pytest.raises(CrossBindingExists):
                    runtime.remove_component(arch, "server")
            else:
                with pytest.raises(UnknownComponent):
                    runtime.remove_component(arch, "nosuch")

        # event-log replay lands on the pre-operation live set, and the
        # serialized architecture state is byte-identical
        assert replay_live_set(mgr.events) == pre_live == mgr.live_ids()
        assert arch.report() == pre_report
        checked += 1
    assert checked == 200


# -- criterion 6: parser fuzz ------------------------------------------------------

def test_acceptance_6_ten_thousand_single_character_mutations():
    rng = random.Random(0xF022)
    pool = '<>/"= \nabczXY0189._-!&;:\''
    parsed = errored = 0
    for _ in range(10_000):
        pos = rng.randrange(len(FIG_TEXT))
        mutated = FIG_TEXT[:pos] + rng.choice(pool) + FIG_TEXT[pos + 1:]
        try:
            definition = parse_adl(mutated)
        except AdlError:
            errored += 1
        else:
            definition.check_invariants()
            parsed += 1
    assert parsed + errored == 10_000
    assert parsed > 0 and errored > 0


# -- criterion 7: bench sanity ------------------------------------------------------

def _chain_text(k: int) -> str:
    parts = [f'<definition name="Chain{k}" version="1.0">']
    for i in range(1, k + 1):
        parts.append(f'<component name="n{i}">'
                     f'<interface name="in" role="server" signature="Hop" version="1.0"/>')
        if i < k:
            parts.append('<interface name="out" role="client" signature="Hop" version="1.0"/>')
        parts.append('<content class="NodeImpl" version="1.0"/></component>')
    for i in range(1, k):
        parts.append(f'<binding client="n{i}.out" server="n{i + 1}.in"/>')
    parts.append('</definition>')
    return "".join(parts)


def test_acceptance_7_bench_bookkeeping_matches_the_analytic_count():
    corpus = load_corpus(corpus_path("chain"))
    for depth in range(1, 6):
        definition = parse_adl(_chain_text(depth))
        assert validate(definition, corpus) == []
        plan = plan_modules(definition, Granularity.PER_COMPONENT, corpus)
        arch = instantiate(definition, plan, ModuleManager(), corpus)
        for calls in (1, 4):
            report = runtime.bench_interception(arch, calls, entry=("n1", "in", "next"))
            # one push and one pop per traversed component, no argument checks
            assert report.bookkeeping_ops == calls * 2 * depth
            assert report.calls == calls
            rendered = report.render()
            assert "%" not in rendered
            assert f"bookkeeping_ops={report.bookkeeping_ops}" in rendered
