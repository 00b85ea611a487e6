from __future__ import annotations

import gc
import itertools
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from reconfig.adl import parse_adl, validate
from reconfig.corpus import CorpusStore, TypeDef, TypeKind, TypeRef, VersionTag, load_corpus
from reconfig.errors import (
    InstantiationError,
    InvariantViolation,
    UnknownComponent,
    UnknownPort,
    VersionConflict,
)
from reconfig import runtime
from reconfig.factory import (
    Granularity,
    ResourcePlan,
    instantiate,
    parse_granularity,
    plan_modules,
    render_plan,
)
from reconfig.modules import EventKind, ModuleId, ModuleManager, replay_live_set
from reconfig.script import parse_script, run_script

from conftest import FIXTURES, adl_path, chain_adl, corpus_path, count_calls

V = VersionTag

FIG = adl_path("hello.fractal.xml").read_text(encoding="utf-8")


def _definition():
    return parse_adl(FIG)


@pytest.fixture
def hello():
    return load_corpus(corpus_path("hello"))


def _labels(plan, prefix):
    return [rp.label for rp in plan.resources if rp.label.startswith(prefix)]


def test_per_component_plan_matches_the_loader_rules(hello):
    plan = plan_modules(_definition(), Granularity.PER_COMPONENT, hello)
    # one module per component implementation, per interface signature,
    # and one for the shared class group
    assert len(plan.resources) == 5
    assert _labels(plan, "impl(") == ["impl(client:ClientImpl@1.0)",
                                      "impl(server:ServerImpl@2.0)"]
    assert _labels(plan, "itf(") == ["itf(Service@1.0)", "itf(java.lang.Runnable@0)"]
    assert _labels(plan, "shared(") == ["shared(Request@1.0)"]
    assert [ip.component for ip in plan.infos] == ["client", "server", "HelloWorld"]

    exports = {rp.label: set(rp.exports) for rp in plan.resources}
    assert exports["shared(Request@1.0)"] == {("Request", V("1.0"))}
    assert exports["impl(client:ClientImpl@1.0)"] == {("ClientImpl", V("1.0"))}
    assert exports["itf(Service@1.0)"] == {("Service", V("1.0"))}


def test_shared_classes_never_live_in_impl_modules(hello):
    definition = _definition()
    plan = plan_modules(definition, Granularity.PER_COMPONENT, hello)
    file_refs = [TypeRef(n, v) for comp in definition.components for n, v in comp.files]
    shared_closure = hello.closure(file_refs)
    exports = {rp.label: set(rp.exports) for rp in plan.resources}
    for pair in shared_closure:
        owners = [label for label, exp in exports.items() if pair in exp]
        assert len(owners) == 1 and owners[0].startswith("shared(")


def test_binding_endpoints_wire_the_signature_to_one_module(hello):
    definition = _definition()
    plan = plan_modules(definition, Granularity.PER_COMPONENT, hello)
    tables = {ip.component: ip.table for ip in plan.infos}
    for b in definition.bindings:
        (c_comp, c_port), (s_comp, s_port) = b.client, b.server
        c_owner = definition.name if c_comp == "this" else c_comp
        s_owner = definition.name if s_comp == "this" else s_comp
        ports = definition.interfaces if c_comp == "this" else \
            definition.component(c_comp).interfaces
        signature = next(i.signature for i in ports if i.name == c_port)
        assert tables[c_owner][signature] == tables[s_owner][signature]


def test_plan_is_a_pure_function_of_its_inputs(hello):
    a = plan_modules(_definition(), Granularity.PER_COMPONENT, hello)
    b = plan_modules(_definition(), Granularity.PER_COMPONENT, hello)
    assert a == b and render_plan(a) == render_plan(b)


def test_two_component_exchange_scenario_plans_to_six_modules():
    """Two components exchanging one interface and one shared class."""
    def td(name, version, kind, refs=(), methods=()):
        return TypeDef(name, V(version), kind,
                       tuple(TypeRef(n, V(v)) for n, v in refs), tuple(methods))

    from reconfig.corpus import MethodSig
    index = {}
    for typedef in [
        td("CmpItf", "1.0", TypeKind.INTERFACE, refs=[("ExchangedItf", "1.0")],
           methods=[MethodSig("push", ("ExchangedItf",), "void")]),
        td("ExchangedItf", "1.0", TypeKind.CLASS),
        td("AImpl", "1.0", TypeKind.CLASS, refs=[("CmpItf", "1.0"), ("ExchangedItf", "1.0")]),
        td("BImpl", "1.0", TypeKind.CLASS, refs=[("CmpItf", "1.0"), ("ExchangedItf", "1.0")],
           methods=[MethodSig("push", ("ExchangedItf",), "void")]),
    ]:
        index[(typedef.name, typedef.version)] = typedef
    corpus = CorpusStore(corpus_path("hello"), index)

    text = ('<definition name="Pair" version="1.0">'
            '<component name="a">'
            '<interface name="c" role="client" signature="CmpItf" version="1.0"/>'
            '<content class="AImpl" version="1.0"/>'
            '<file name="ExchangedItf" version="1.0"/></component>'
            '<component name="b">'
            '<interface name="c" role="server" signature="CmpItf" version="1.0"/>'
            '<content class="BImpl" version="1.0"/>'
            '<file name="ExchangedItf" version="1.0"/></component>'
            '<binding client="a.c" server="b.c"/>'
            '</definition>')
    definition = parse_adl(text)
    assert validate(definition, corpus) == []
    plan = plan_modules(definition, Granularity.PER_COMPONENT, corpus)
    assert len(_labels(plan, "impl(")) == 2
    assert _labels(plan, "itf(") == ["itf(CmpItf@1.0)"]
    assert _labels(plan, "shared(") == ["shared(ExchangedItf@1.0)"]
    # the enclosing definition has no ports, so no info module for it
    assert [ip.component for ip in plan.infos] == ["a", "b"]


def test_single_loader_collapses_to_one_resource_and_one_info(hello):
    plan = plan_modules(_definition(), Granularity.SINGLE_LOADER, hello)
    assert len(plan.resources) == 1 and len(plan.infos) == 1
    assert plan.resources[0].label == "all"
    assert len(plan.resources[0].exports) == 5
    assert plan.infos[0].component == "HelloWorld"


def test_single_loader_rejects_two_versions_of_one_name():
    def td(name, version, kind=TypeKind.CLASS, refs=()):
        return TypeDef(name, V(version), kind,
                       tuple(TypeRef(n, V(v)) for n, v in refs), ())

    index = {}
    for typedef in [td("Request", "1.0"), td("Request", "2.0"),
                    td("AImpl", "1.0", refs=[("Request", "1.0")]),
                    td("BImpl", "1.0", refs=[("Request", "2.0")])]:
        index[(typedef.name, typedef.version)] = typedef
    corpus = CorpusStore(corpus_path("hello"), index)
    text = ('<definition name="X" version="1.0">'
            '<component name="a"><content class="AImpl" version="1.0"/></component>'
            '<component name="b"><content class="BImpl" version="1.0"/></component>'
            '</definition>')
    definition = parse_adl(text)

    # oracle: group required pairs by name and count distinct versions
    needed = corpus.closure([TypeRef("AImpl", V("1.0"))]) | \
        corpus.closure([TypeRef("BImpl", V("1.0"))])
    versions_of_request = {v for n, v in needed if n == "Request"}
    assert len(versions_of_request) == 2

    with pytest.raises(VersionConflict) as exc:
        plan_modules(definition, Granularity.SINGLE_LOADER, corpus)
    assert exc.value.name == "Request"
    # per-component keeps the two versions apart, one per implementation module
    plan = plan_modules(definition, Granularity.PER_COMPONENT, corpus)
    assert len(_labels(plan, "impl(")) == 2


def test_render_plan_is_sorted_and_stable(hello):
    plan = plan_modules(_definition(), Granularity.PER_COMPONENT, hello)
    lines = render_plan(plan).splitlines()
    resource_lines = [l for l in lines if l.startswith("RESOURCE")]
    info_lines = [l for l in lines if l.startswith("INFO")]
    assert lines == resource_lines + info_lines
    assert resource_lines == sorted(resource_lines)
    assert info_lines == sorted(info_lines)


def test_plan_requires_a_clean_validation(hello):
    bad = parse_adl(FIG.replace('class="ServerImpl" version="2.0"',
                                'class="ServerImpl" version="3.0"'))
    with pytest.raises(ValueError, match="diagnostics"):
        plan_modules(bad, Granularity.PER_COMPONENT, hello)


def test_granularity_parsing_and_reserved_flag():
    assert parse_granularity("single") is Granularity.SINGLE_LOADER
    assert parse_granularity("per-component") is Granularity.PER_COMPONENT
    with pytest.raises(NotImplementedError):
        parse_granularity("selective")
    with pytest.raises(ValueError):
        parse_granularity("bogus")


def test_instantiate_builds_a_checked_architecture(hello):
    definition = _definition()
    plan = plan_modules(definition, Granularity.PER_COMPONENT, hello)
    arch = instantiate(definition, plan, ModuleManager(), hello)
    assert set(arch.components) == {"client", "server", "HelloWorld"}
    assert arch.root.kind.value == "composite"
    assert len(arch.bindings) == 1  # client.s -> server.s
    assert arch.root.port("r").route.owner.name == "client"
    assert all(chk is None for _, chk in arch.binding_checks())
    assert len(arch.mgr.live_ids()) == 8


def test_a_port_spec_without_a_dot_names_no_port(hello):
    definition = _definition()
    arch = instantiate(definition, plan_modules(definition, Granularity.PER_COMPONENT, hello),
                       ModuleManager(), hello)
    assert arch.find_port("client.s") is arch.component("client").port("s")
    with pytest.raises(UnknownPort) as exc:
        arch.find_port("ghost")
    assert not isinstance(exc.value, UnknownComponent)
    assert exc.value.code == "UnknownPort"
    assert str(exc.value) == "port spec 'ghost' is not component.port"
    with pytest.raises(UnknownPort, match="^component client has no port t$"):
        arch.find_port("client.t")
    with pytest.raises(UnknownComponent):
        arch.find_port("ghost.s")


def test_a_port_spec_with_an_empty_port_part_names_no_port(hello):
    definition = _definition()
    arch = instantiate(definition, plan_modules(definition, Granularity.PER_COMPONENT, hello),
                       ModuleManager(), hello)
    with pytest.raises(UnknownPort) as exc:
        arch.find_port("client.")
    assert exc.value.code == "UnknownPort"
    assert str(exc.value) == "port spec 'client.' is not component.port"
    for spec in (".s", "ghost."):
        with pytest.raises(UnknownComponent):
            arch.find_port(spec)


def test_instantiate_under_single_loader_shares_one_info(hello):
    definition = _definition()
    plan = plan_modules(definition, Granularity.SINGLE_LOADER, hello)
    arch = instantiate(definition, plan, ModuleManager(), hello)
    infos = {comp.info_module for comp in arch.components.values()}
    assert len(infos) == 1
    assert all(chk is None for _, chk in arch.binding_checks())


def test_single_loader_architecture_answers_invocations_identically(hello):
    from reconfig import runtime
    definition = _definition()
    traces = {}
    for granularity in (Granularity.PER_COMPONENT, Granularity.SINGLE_LOADER):
        plan = plan_modules(definition, granularity, hello)
        arch = instantiate(definition, plan, ModuleManager(), hello)
        assert runtime.invoke(arch, "HelloWorld", "r", "run") is None
        result = runtime.invoke(arch, "client", "s", "handler")
        assert result.rt_type.name == "ServerImpl"
        traces[granularity] = [(e.kind, e.args[0]) for e in arch.trace]
    # same traversal shape, whatever the loader granularity
    assert traces[Granularity.PER_COMPONENT] == traces[Granularity.SINGLE_LOADER]


def _sabotaged(corpus: CorpusStore, *drop: tuple[str, str]) -> CorpusStore:
    gone = {(n, V(v)) for n, v in drop}
    index = {(td.name, td.version): td for td in corpus.entries()
             if (td.name, td.version) not in gone}
    return CorpusStore(corpus.root, index)


def test_failed_instantiation_rolls_back_all_modules(hello):
    definition = _definition()
    plan = plan_modules(definition, Granularity.PER_COMPONENT, hello)
    mgr = ModuleManager()
    bystander = mgr.create_resource_module([], hello)  # pre-existing module
    before = mgr.live_ids()

    with pytest.raises(InstantiationError) as exc:
        instantiate(definition, plan, mgr, _sabotaged(hello, ("ServerImpl", "2.0")))
    assert exc.value.code == "UnresolvableExport"

    assert mgr.live_ids() == before == frozenset({bystander})
    # oracle: replaying the event log lands on the same live set
    assert replay_live_set(mgr.events) == before
    kinds = [e.kind for e in mgr.events]
    added, removed = kinds.count(EventKind.ADDED), kinds.count(EventKind.REMOVED)
    assert added == removed + 1  # the bystander stays


def _assert_each_provider_is_the_only_exporter_of_its_pairs(table, mgr=None) -> None:
    """Each import's planned provider, a ``ResourcePlan`` or a live module id, is the only
    one of ``table``'s providers that exports the pair: resolving among them gives the plan."""
    def exports(provider):
        if isinstance(provider, ResourcePlan):
            return provider.exports
        return mgr.module(provider).exports.items()

    providers = {provider for _, provider in table.values()}
    for name, (version, planned) in table.items():
        exporters = [p for p in providers if (name, version) in exports(p)]
        assert exporters == [planned], (name, version, exporters)


def _fixture_definitions():
    """Every fixture ADL × corpus whose definition validates, with that corpus."""
    for adl in sorted((FIXTURES / "adl").glob("*.fractal.xml")):
        definition = parse_adl(adl.read_text(encoding="utf-8"))
        for corpus_dir in sorted((FIXTURES / "corpora").iterdir()):
            corpus = load_corpus(corpus_dir)
            if not validate(definition, corpus):
                yield definition, corpus


def test_every_fixture_plan_takes_each_import_from_its_only_exporter_among_the_providers():
    tables = [ip.table for definition, corpus in _fixture_definitions()
              for ip in plan_modules(definition, Granularity.PER_COMPONENT, corpus).infos]
    assert len(tables) > 10
    for table in tables:
        _assert_each_provider_is_the_only_exporter_of_its_pairs(table)


ADD_SERVER2 = ('add <component name="server2">'
               '<interface name="s" role="server" signature="Service" version="1.0"/>'
               '<content class="ServerImpl" version="2.0"/>'
               '<file name="Request" version="1.0"/></component>\nexpect-ok\n')


def test_the_fixture_scripts_adds_and_swaps_plan_each_import_from_its_only_exporter(
        monkeypatch):
    scripts = [path.read_text(encoding="utf-8")
               for path in sorted((FIXTURES / "scripts").glob("*.script"))] + [ADD_SERVER2]
    original, checked, arch = runtime.plan_component, Counter(), None

    def checked_plan(component, corpus, public):
        impl, table = original(component, corpus, public)
        _assert_each_provider_is_the_only_exporter_of_its_pairs(table, arch.mgr)
        checked["swap" if component.name in arch.components else "add"] += 1
        return impl, table

    monkeypatch.setattr(runtime, "plan_component", checked_plan)
    for definition, corpus in _fixture_definitions():
        for text in scripts:
            plan = plan_modules(definition, Granularity.PER_COMPONENT, corpus)
            arch = instantiate(definition, plan, ModuleManager(), corpus)
            run_script(arch, corpus, parse_script(text))
    assert checked["swap"] > 0 and checked["add"] > 0, checked


def test_plan_invariants_hold_on_random_architectures():
    """Every import has one provider among its candidates; shared types never
    leak into implementation modules; binding endpoints agree on a module."""
    import random
    from reconfig.corpus import MethodSig

    rng = random.Random(61)
    for _ in range(40):
        param = rng.choice(["Message", "object"])
        refs = (TypeRef("Message", V("1.0")),) if rng.random() < 0.5 else ()
        index = {}
        for td in [
            TypeDef("Push", V("1.0"), TypeKind.INTERFACE, refs,
                    (MethodSig("push", (param,), "void"),)),
            TypeDef("Message", V("1.0"), TypeKind.CLASS, (), ()),
            TypeDef("HubImpl", V("1.0"), TypeKind.CLASS,
                    (TypeRef("Push", V("1.0")), TypeRef("Message", V("1.0"))), ()),
            TypeDef("NodeImpl", V("1.0"), TypeKind.CLASS,
                    (TypeRef("Push", V("1.0")), TypeRef("Message", V("1.0"))),
                    (MethodSig("push", (param,), "void"),)),
        ]:
            index[(td.name, td.version)] = td
        corpus = CorpusStore(corpus_path("hello"), index)

        n = rng.randint(1, 4)
        parts = ['<definition name="Star" version="1.0">', '<component name="hub">']
        for i in range(n):
            parts.append(f'<interface name="o{i}" role="client" '
                         f'signature="Push" version="1.0"/>')
        parts.append('<content class="HubImpl" version="1.0"/>')
        if rng.random() < 0.5:
            parts.append('<file name="Message" version="1.0"/>')
        parts.append('</component>')
        for i in range(n):
            parts.append(f'<component name="n{i}">'
                         f'<interface name="in" role="server" signature="Push" version="1.0"/>'
                         f'<content class="NodeImpl" version="1.0"/>')
            if rng.random() < 0.5:
                parts.append('<file name="Message" version="1.0"/>')
            parts.append('</component>')
        for i in range(n):
            parts.append(f'<binding client="hub.o{i}" server="n{i}.in"/>')
        parts.append('</definition>')
        definition = parse_adl("".join(parts))
        assert validate(definition, corpus) == []
        plan = plan_modules(definition, Granularity.PER_COMPONENT, corpus)

        exports = {rp.label: set(rp.exports) for rp in plan.resources}
        for ip in plan.infos:
            _assert_each_provider_is_the_only_exporter_of_its_pairs(ip.table)
        shared_types = {p for rp in plan.resources if rp.label.startswith("shared(")
                        for p in rp.exports}
        for pair in shared_types:
            owners = [label for label, exp in exports.items() if pair in exp]
            assert owners and all(label.startswith("shared(") for label in owners)
        tables = {ip.component: ip.table for ip in plan.infos}
        for b in definition.bindings:
            assert tables[b.client[0]]["Push"] == tables[b.server[0]]["Push"]
        # the plan must instantiate and hold its binding checks
        arch = instantiate(definition, plan, ModuleManager(), corpus)
        assert all(chk is None for _, chk in arch.binding_checks())


def test_failed_instantiation_reports_the_adl_location(hello):
    definition = _definition()
    plan = plan_modules(definition, Granularity.PER_COMPONENT, hello)
    with pytest.raises(InstantiationError) as exc:
        instantiate(definition, plan, ModuleManager(), _sabotaged(hello, ("ServerImpl", "2.0")))
    assert "impl(server:ServerImpl@2.0)" in str(exc.value)


def test_wiring_that_departs_from_the_plan_fails_instantiation(hello):
    plan = plan_modules(_definition(), Granularity.PER_COMPONENT, hello)
    client = next(ip for ip in plan.infos if ip.component == "client")
    table = dict(client.table)
    # Service is planned from the client's implementation module, and ClientImpl from
    # Service's interface module: the providers stay the same, neither exports its pair.
    (sv, itf), (cv, impl) = table["Service"], table["ClientImpl"]
    table["Service"], table["ClientImpl"] = (sv, impl), (cv, itf)
    infos = tuple(replace(ip, table=table) if ip is client else ip for ip in plan.infos)
    mgr = ModuleManager()
    with pytest.raises(InstantiationError) as exc:
        instantiate(_definition(), replace(plan, infos=infos), mgr, hello)
    assert exc.value.code == "UnresolvableExport"
    assert exc.value.location == "info module client"
    assert mgr.live_ids() == frozenset()


def test_report_refuses_a_module_of_unknown_kind(hello, monkeypatch):
    definition = _definition()
    mgr = ModuleManager()
    arch = instantiate(definition, plan_modules(definition, Granularity.PER_COMPONENT, hello),
                       mgr, hello)
    monkeypatch.setitem(mgr._modules, ModuleId(10_000), object())
    with pytest.raises(InvariantViolation):
        arch.report()


# --- planning memory grows with the architecture, not with its square ----------------

def _one_interface_architecture(n: int):
    """``n`` primitives, each with its own content class over one shared interface."""
    from reconfig.corpus import MethodSig
    call = (MethodSig("call", (), "void"),)
    index = {("Itf", V("1.0")): TypeDef("Itf", V("1.0"), TypeKind.INTERFACE, (), call)}
    for i in range(n):
        index[(f"Impl{i}", V("1.0"))] = TypeDef(f"Impl{i}", V("1.0"), TypeKind.CLASS,
                                                (TypeRef("Itf", V("1.0")),), call)
    text = ('<definition name="Many" version="1.0">'
            + "".join(f'<component name="c{i}">'
                      '<interface name="s" role="server" signature="Itf" version="1.0"/>'
                      f'<content class="Impl{i}" version="1.0"/></component>' for i in range(n))
            + '</definition>')
    return parse_adl(text), CorpusStore(corpus_path("hello"), index)


def _single_plan_peak_per_primitive(n: int) -> float:
    """The ``tracemalloc`` peak of planning once the corpus memos are warm, per primitive."""
    definition, corpus = _one_interface_architecture(n)
    plan_modules(definition, Granularity.SINGLE_LOADER, corpus)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan = plan_modules(definition, Granularity.SINGLE_LOADER, corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan.infos[0].imports) == n + 1
    return (peak - base) / n


def test_a_single_loader_plan_takes_the_same_memory_per_primitive_at_100_and_1000():
    """Memory is counted, never timed: one table per info module, none per owner and pair."""
    small, large = _single_plan_peak_per_primitive(100), _single_plan_peak_per_primitive(1000)
    assert large <= 2 * small, (small, large)


# --- a build costs the same per primitive at 250 and 2000 ---------------------------

def _write_chain(root, n: int) -> str:
    """Write the corpus of an ``n``-chain under ``root``; return the chain's ADL text.

    Each primitive has its own content class and private helper class over one
    shared interface and message type.
    """
    from reconfig.corpus import MethodSig, write_corpus

    one = V("1.0")
    push = (MethodSig("push", ("Message",), "void"),)
    typedefs = [TypeDef("Message", one, TypeKind.CLASS, (), ()),
                TypeDef("Push", one, TypeKind.INTERFACE, (TypeRef("Message", one),), push)]
    for i in range(n):
        typedefs.append(TypeDef(f"H{i}", one, TypeKind.CLASS, (), ()))
        typedefs.append(TypeDef(f"Impl{i}", one, TypeKind.CLASS,
                                (TypeRef("Push", one), TypeRef(f"H{i}", one)), push))
    write_corpus(root, typedefs)
    return chain_adl(n)


def _build_work_per_primitive(root, n: int) -> dict[tuple[str, str], float]:
    """Counted work of each build layer, per primitive: ``(layer, counted call) -> calls / n``."""
    from reconfig import adl, corpus, factory

    text = _write_chain(root, n)
    hooks = [(corpus, "_parse_typedef"), (adl._Scanner, "read_tag"),
             (CorpusStore, "closure"), (CorpusStore, "resolve"), (CorpusStore, "lookup"),
             (ModuleManager, "create_resource_module"), (ModuleManager, "create_info_module"),
             (ModuleManager, "_set_wiring"), (ModuleManager, "_make_live"),
             (factory, "bind"), (factory, "route")]
    counts, work = Counter(), Counter()

    def layer(name: str, result):
        work.update({(name, call): k for call, k in counts.items()})
        counts.clear()
        return result

    with pytest.MonkeyPatch.context() as patch:
        for owner, name in hooks:
            count_calls(patch, owner, name, counts)
        store = layer("load", load_corpus(root))
        definition = layer("parse", parse_adl(text))
        assert layer("validate", validate(definition, store)) == []
        plan = layer("plan", plan_modules(definition, Granularity.PER_COMPONENT, store))
        layer("instantiate", instantiate(definition, plan, ModuleManager(), store))
    return {key: k / n for key, k in work.items()}


def test_a_build_does_the_same_work_per_primitive_at_250_and_2000(tmp_path):
    """Counted, never timed. A count linear in the primitives differs per primitive
    between the two sizes only by its constant part; a quadratic one grows eightfold."""
    small = _build_work_per_primitive(tmp_path / "small", 250)
    large = _build_work_per_primitive(tmp_path / "large", 2000)
    assert small.keys() == large.keys()
    for key in small:
        assert large[key] <= 1.05 * small[key], (key, small[key], large[key])
    assert small[("load", "_parse_typedef")] == (2 * 250 + 2) / 250
    assert large[("instantiate", "bind")] == 1999 / 2000
    for work in (small, large):
        # each created module is made live once, already wired, and nothing is rewired
        assert ("instantiate", "_set_wiring") not in work
        assert work[("instantiate", "_make_live")] == (
            work[("instantiate", "create_resource_module")]
            + work[("instantiate", "create_info_module")])


# --- a build reads each distinct declaration once per input --------------------------

def _distinct_values(root, key: str) -> set[str]:
    """The distinct values of ``key:`` lines across the typedef files under ``root``."""
    return {line.partition(":")[2].strip()
            for path in root.rglob("*.typedef")
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.partition(":")[0].strip() == key}


def test_one_load_parses_each_distinct_ref_and_method_once(tmp_path):
    """Counted, never timed. What one load read is not kept for the next."""
    from reconfig import corpus

    _write_chain(tmp_path, 2000)
    refs, methods = _distinct_values(tmp_path, "ref"), _distinct_values(tmp_path, "method")
    assert (len(refs), len(methods)) == (2002, 1)
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        count_calls(patch, corpus, "_parse_ref", counts)
        count_calls(patch, corpus, "_parse_method", counts)
        store = load_corpus(tmp_path)
        assert counts == {"_parse_ref": len(refs), "_parse_method": len(methods)}
        load_corpus(tmp_path)
        assert counts == {"_parse_ref": 2 * len(refs), "_parse_method": 2 * len(methods)}
    by_text: dict[str, set[int]] = {}
    for td in store.entries():
        for ref in td.references:
            by_text.setdefault(str(ref), set()).add(id(ref))
    assert by_text.keys() == refs
    assert all(len(ids) == 1 for ids in by_text.values())


def test_one_parse_checks_each_distinct_leaf_once():
    """Counted, never timed: each leaf check runs once per distinct attribute text
    of its tag, and every element keeps its own position."""
    from reconfig import adl

    text = chain_adl(2000)
    leaves = Counter(re.findall(r"<(interface|content|file|binding) ([^>]*)/>", text))
    distinct = Counter(tag for tag, _ in leaves)
    assert distinct == {"interface": 3, "content": 2000, "binding": 2000}
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for tag, (check, record) in list(adl._LEAVES.items()):
            def counted(el, tag=tag, check=check):
                counts[tag] += 1
                return check(el)
            patch.setitem(adl._LEAVES, tag, (counted, record))
        definition = parse_adl(text)
    assert counts == distinct

    def at(tag: str) -> list[tuple[int, int]]:
        """Line and column of each ``<tag`` in the text."""
        return [(text.count("\n", 0, m.start()) + 1, m.start() - text.rfind("\n", 0, m.start()))
                for m in re.finditer(f"<{tag} ", text)]

    ports = [(i.line, i.col) for i in definition.interfaces] \
        + [(i.line, i.col) for c in definition.components for i in c.interfaces]
    assert len(ports) == 4000 and ports == at("interface")
    assert [(b.line, b.col) for b in definition.bindings] == at("binding")


def test_closure_of_spells_no_version_on_clean_walks():
    """Counted, never timed: a walk that succeeds formats no ``name@version`` chain."""
    stores = [load_corpus(path) for path in sorted(corpus_path("hello").parent.iterdir())]
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        count_calls(patch, VersionTag, "__str__", counts)
        walked = [store.closure_of((td.name, td.version))
                  for store in stores for td in store.entries()]
    assert len(walked) == sum(len(store) for store in stores) > 0
    assert counts["__str__"] == 0


# --- instantiate names the step that failed, and spells it only then ----------------

class _Injected(Exception):
    pass


@pytest.mark.parametrize("owner, name, k, location", [
    ("mgr", "create_resource_module", 2, "module impl(server:ServerImpl@2.0)"),
    ("mgr", "create_info_module", 2, "info module server"),
    ("mgr", "create_info_module", 3, "info module HelloWorld"),
    ("factory", "new_primitive", 2, "component server (12:5)"),
    ("factory", "new_composite", 1, "definition HelloWorld"),
    ("factory", "route", 1, "binding this.r -> client.r (18:5)"),
    ("factory", "bind", 1, "binding client.s -> server.s (19:5)"),
])
def test_a_fault_at_each_kind_of_step_names_that_step(hello, owner, name, k, location):
    """Each kind of step fails once, at its k-th call, and the error names it exactly."""
    from reconfig import factory

    definition = _definition()
    plan = plan_modules(definition, Granularity.PER_COMPONENT, hello)
    mgr = ModuleManager()
    target = mgr if owner == "mgr" else factory
    calls = [0]

    def faulty(*args, _real=getattr(target, name), **kwargs):
        calls[0] += 1
        if calls[0] == k:
            raise _Injected(f"{name} call {k}")
        return _real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(target, name, faulty)
        with pytest.raises(InstantiationError) as exc:
            instantiate(definition, plan, mgr, hello)
    assert str(exc.value) == f"at {location}: {name} call {k}"
    assert exc.value.location == location and exc.value.code == "_Injected"
    assert mgr.live_ids() == frozenset()


def test_a_clean_instantiate_spells_no_binding_and_resolves_only_what_it_defines(tmp_path):
    """Counted, never timed: a location is formatted only for the error that names it,
    and ports take their versions from the planned tables, so the corpus is asked only
    for each type a module defines for the first time."""
    from reconfig.adl import AdlBinding

    text = _write_chain(tmp_path, 50)
    store = load_corpus(tmp_path)
    definition = parse_adl(text)
    plan = plan_modules(definition, Granularity.PER_COMPONENT, store)
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        count_calls(patch, AdlBinding, "__str__", counts)
        count_calls(patch, CorpusStore, "resolve", counts)
        arch = instantiate(definition, plan, ModuleManager(), store)
    assert len(arch.bindings) == 49
    defined = sum(len(m._defined) for m in arch.mgr.resource_modules())
    assert counts == {"resolve": defined}
    assert defined == 50 + 1


# --- a built architecture keeps the same memory per primitive at 250 and 2000 --------

def _kept_by_instantiate_per_primitive(root, n: int) -> float:
    """The ``tracemalloc`` bytes that a finished ``instantiate`` still holds, per primitive."""
    text = _write_chain(root, n)
    store = load_corpus(root)
    definition = parse_adl(text)
    plan = plan_modules(definition, Granularity.PER_COMPONENT, store)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        arch = instantiate(definition, plan, ModuleManager(), store)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(arch.components) == n + 1
    return (kept - base) / n


def test_a_built_architecture_keeps_the_same_memory_per_primitive_at_250_and_2000(tmp_path):
    """Memory is counted, never timed: what a primitive costs does not grow with the
    architecture."""
    small = _kept_by_instantiate_per_primitive(tmp_path / "small", 250)
    large = _kept_by_instantiate_per_primitive(tmp_path / "large", 2000)
    assert abs(large - small) <= 0.05 * small, (small, large)


def _ports_checked_against_their_providers(arch) -> Counter:
    """Assert that each live port's version is the one its info module's provider exports
    for its signature, equal as a tag and as text; count the ports checked by kind."""
    mgr, checked = arch.mgr, Counter()
    for comp in arch.components.values():
        for port in comp.interfaces:
            info = mgr.module(comp.info_module)
            exported = mgr.module(info.imports[port.signature]).exports[port.signature]
            assert (port.version, str(port.version)) == (exported, str(exported)), str(port)
            checked[comp.kind.value] += 1
    return checked


def test_each_port_carries_the_version_its_provider_exports_after_every_command():
    """Every fixture ADL over every corpus it validates against, at both granularities:
    after the build and after each command of each fixture script, run one at a time."""
    scripts = [parse_script(path.read_text(encoding="utf-8"))
               for path in sorted((FIXTURES / "scripts").glob("*.script"))]
    checked = Counter()
    for adl in sorted((FIXTURES / "adl").glob("*.xml")):
        definition = parse_adl(adl.read_text(encoding="utf-8"))
        for corpus_dir in sorted((FIXTURES / "corpora").iterdir()):
            corpus = load_corpus(corpus_dir)
            if validate(definition, corpus):
                continue
            for granularity, commands in itertools.product(Granularity, scripts):
                plan = plan_modules(definition, granularity, corpus)
                arch = instantiate(definition, plan, ModuleManager(), corpus)
                checked += _ports_checked_against_their_providers(arch)
                for cmd in commands:
                    if not cmd.kind.startswith("expect-"):
                        run_script(arch, corpus, [cmd])
                        checked += _ports_checked_against_their_providers(arch)
    assert checked == Counter(primitive=624, composite=96)
