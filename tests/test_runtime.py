from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconfig.adl import parse_adl, parse_component_fragment, validate
from reconfig.corpus import CorpusStore, MethodSig, TypeDef, TypeKind, TypeRef, VersionTag, load_corpus
from reconfig.errors import (
    AlreadyBound,
    AmbiguousImport,
    ArityError,
    CallDepthExceeded,
    ContentNotAClass,
    CrossBindingExists,
    DuplicatePort,
    GranularityForbidsSwap,
    InvariantViolation,
    MissingMethod,
    NotAChild,
    NotAPrimitive,
    ReconfigDuringCall,
    ReconfigError,
    TypeMismatch,
    UnboundInterface,
    UnknownBinding,
    UnknownMethod,
    UnknownModule,
    UnresolvableExport,
)
from reconfig.factory import Granularity, ResourcePlan, instantiate, plan_component, plan_modules
from reconfig.model import ComponentKind, bind, unbind
from reconfig.modules import (
    EventKind, InfoModule, ModuleManager, ResourceModule, replay_live_set, same_type)
from reconfig import factory, model, runtime

from conftest import adl_path, build_architecture, corpus_path, count_calls

V = VersionTag


def test_traversal_produces_a_nested_three_deep_trace(fixtures_dir):
    arch, _, _ = build_architecture("hello.fractal.xml", "hello")
    assert runtime.invoke(arch, "HelloWorld", "r", "run") is None
    golden = (fixtures_dir / "golden" / "hello_trace.txt").read_text(encoding="utf-8")
    assert runtime.serialize_trace(arch) == golden

    enters = [e for e in arch.trace if e.kind == runtime.ENTER]
    assert len(enters) == 3
    assert len({e.args[1] for e in enters}) == 3  # three distinct context modules


def test_context_balances_even_when_the_receiver_rejects():
    arch, _, _ = build_architecture("push_opaque.fractal.xml", "pushopaque")
    value = runtime.make_value(arch, arch.component("sender"), "Message")
    with pytest.raises(TypeMismatch) as exc:
        runtime.invoke(arch, "sender", "p", "push", [value])
    assert exc.value.type_name == "Message"
    assert exc.value.left_module != exc.value.right_module
    opens = sum(1 for e in arch.trace if e.kind == runtime.ENTER)
    closes = sum(1 for e in arch.trace if e.kind == runtime.EXIT)
    assert opens == closes == 1
    assert not arch.in_call

    # the check event records the mismatch before the raise
    checks = [e for e in arch.trace if e.kind == runtime.CHECK]
    assert checks[-1].args == ("Message", "mismatch")


def test_unknown_method_and_arity_errors():
    arch, _, _ = build_architecture("hello.fractal.xml", "hello")
    with pytest.raises(UnknownMethod):
        runtime.invoke(arch, "HelloWorld", "r", "walk")
    value = runtime.make_value(arch, arch.component("client"), "Request")
    with pytest.raises(ArityError):
        runtime.invoke(arch, "HelloWorld", "r", "run", [value])


def test_invoking_through_an_unbound_port_fails():
    arch, _, _ = build_architecture("hello.fractal.xml", "hello")
    runtime.unbind_port(arch, "client.s")
    with pytest.raises(UnboundInterface):
        runtime.invoke(arch, "client", "s", "push")
    # the traversal from the export breaks at the unbound hop too
    with pytest.raises(UnboundInterface):
        runtime.invoke(arch, "HelloWorld", "r", "run")


def test_reconfiguration_is_refused_mid_call():
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    before = arch.report()
    arch.in_call = True
    try:
        with pytest.raises(ReconfigDuringCall):
            runtime.swap_implementation(arch, "server", ("ServerImpl", "2.0"), corpus)
        with pytest.raises(ReconfigDuringCall):
            runtime.invoke(arch, "HelloWorld", "r", "run")
        with pytest.raises(ReconfigDuringCall):
            runtime.rebind(arch, "client.s", "server.s")
        with pytest.raises(ReconfigDuringCall):
            runtime.bind_ports(arch, "client.s", "server.s")
        with pytest.raises(ReconfigDuringCall):
            runtime.unbind_port(arch, "client.s")
    finally:
        arch.in_call = False
    assert arch.report() == before


def test_a_call_into_an_unrouted_composite_export_is_refused_naming_the_port():
    text = adl_path("hello.fractal.xml").read_text(encoding="utf-8")
    unrouted = text.replace('<binding client="this.r" server="client.r"/>', "")
    assert unrouted != text
    arch = _build_text(unrouted, load_corpus(corpus_path("hello")))
    before = arch.report()
    with pytest.raises(UnboundInterface) as exc:
        runtime.invoke(arch, "HelloWorld", "r", "run")
    assert str(exc.value) == "port HelloWorld.r is not bound"
    assert [(e.kind, e.args[0]) for e in arch.trace] == [(runtime.ENTER, "HelloWorld"),
                                                          (runtime.EXIT, "HelloWorld")]
    assert arch.report() == before and not arch.in_call


def test_a_bound_client_port_whose_signature_declares_no_methods_forwards_nothing():
    def entered(marker_methods):
        runnable = (MethodSig("run", (), "void"),)
        corpus = _corpus_of(
            TypeDef("Runnable", V("1.0"), TypeKind.INTERFACE, (), runnable),
            TypeDef("Marker", V("1.0"), TypeKind.INTERFACE, (), marker_methods),
            TypeDef("ClientImpl", V("1.0"), TypeKind.CLASS, (), runnable),
            TypeDef("SinkImpl", V("1.0"), TypeKind.CLASS, (), marker_methods))
        arch = _build_text(
            '<definition name="D" version="1.0"><component name="client">'
            '<interface name="r" role="server" signature="Runnable" version="1.0"/>'
            '<interface name="m" role="client" signature="Marker" version="1.0"/>'
            '<content class="ClientImpl" version="1.0"/></component>'
            '<component name="sink">'
            '<interface name="m" role="server" signature="Marker" version="1.0"/>'
            '<content class="SinkImpl" version="1.0"/></component>'
            '<binding client="client.m" server="sink.m"/></definition>', corpus)
        assert runtime.invoke(arch, "client", "r", "run") is None
        return [e.args[0] for e in arch.trace if e.kind == runtime.ENTER]

    assert entered(()) == ["client"]
    assert entered((MethodSig("ping", (), "void"),)) == ["client", "sink"]


# --- swap ----------------------------------------------------------------------

def test_swap_switches_future_dispatch_to_the_new_module():
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    old = arch.component("server").content
    before = runtime.invoke(arch, "client", "s", "handler")
    assert before.rt_type.defined_by == old.defined_by

    record = runtime.swap_implementation(arch, "server", ("ServerImpl", "2.0"), corpus)
    after = runtime.invoke(arch, "client", "s", "handler")
    assert after.rt_type.defined_by == record.new_module
    assert str(after.rt_type.definition.version) == "2.0"
    assert not same_type(record.old_content, record.new_content)
    assert record.old_content.defined_by in arch.mgr.live_ids()  # coexistence
    swaps = [e for e in arch.trace if e.kind == runtime.SWAP]
    assert len(swaps) == 1 and swaps[0].args[0] == "server"


def test_values_created_before_a_swap_still_pass_unchanged_wirings():
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    request = runtime.make_value(arch, arch.component("client"), "Request")
    assert runtime.invoke(arch, "client", "s", "push", [request]) is None
    runtime.swap_implementation(arch, "server", ("ServerImpl", "2.0"), corpus)
    assert runtime.invoke(arch, "client", "s", "push", [request]) is None
    assert all(chk is None for _, chk in arch.binding_checks())


def test_swap_to_a_malformed_version_or_class_name_is_unresolvable():
    arch, corpus, _ = build_architecture("hello.fractal.xml", "hello")
    before, live = arch.report(), arch.mgr.live_ids()
    for target in (("ServerImpl", "x.y"), ("Server-Impl", "2.0")):
        with pytest.raises(UnresolvableExport):
            runtime.swap_implementation(arch, "server", target, corpus)
    assert arch.report() == before and arch.mgr.live_ids() == live


def test_swap_error_cases_leave_no_trace():
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    before = arch.report()
    pre_live = arch.mgr.live_ids()

    with pytest.raises(UnresolvableExport):
        runtime.swap_implementation(arch, "server", ("ServerImpl", "4.0"), corpus)
    with pytest.raises(ContentNotAClass):
        runtime.swap_implementation(arch, "server", ("Service", "1.0"), corpus)
    with pytest.raises(NotAPrimitive):
        runtime.swap_implementation(arch, "HelloWorld", ("ServerImpl", "2.0"), corpus)

    # a candidate lacking a required method is rejected before any module exists
    entries = {(td.name, td.version): td for td in corpus.entries()}
    sparse = TypeDef("ServerImpl", V("3.0"), TypeKind.CLASS,
                     (TypeRef("Service", V("1.0")),),
                     (MethodSig("push", ("Request",), "void"),))
    entries[(sparse.name, sparse.version)] = sparse
    bigger = CorpusStore(corpus.root, entries)
    with pytest.raises(MissingMethod):
        runtime.swap_implementation(arch, "server", ("ServerImpl", "3.0"), bigger)

    assert arch.report() == before
    assert arch.mgr.live_ids() == pre_live


def test_swap_requires_per_component_granularity():
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap",
                                         Granularity.SINGLE_LOADER)
    with pytest.raises(GranularityForbidsSwap):
        runtime.swap_implementation(arch, "server", ("ServerImpl", "2.0"), corpus)


# --- rebind / add / remove ------------------------------------------------------

def _two_servers_text():
    return ('<definition name="Two" version="1.0">'
            '<component name="client">'
            '<interface name="s" role="client" signature="Service" version="1.0"/>'
            '<content class="ClientImpl" version="1.0"/>'
            '<file name="Request" version="1.0"/></component>'
            '<component name="server">'
            '<interface name="s" role="server" signature="Service" version="1.0"/>'
            '<content class="ServerImpl" version="2.0"/>'
            '<file name="Request" version="1.0"/></component>'
            '<component name="server2">'
            '<interface name="s" role="server" signature="Service" version="1.0"/>'
            '<content class="ServerImpl" version="2.0"/>'
            '<file name="Request" version="1.0"/></component>'
            '<binding client="client.s" server="server.s"/>'
            '</definition>')


def _build_text(text: str, corpus: CorpusStore):
    definition = parse_adl(text)
    assert validate(definition, corpus) == []
    plan = plan_modules(definition, Granularity.PER_COMPONENT, corpus)
    return instantiate(definition, plan, ModuleManager(), corpus)


def test_rebind_moves_a_binding_atomically():
    corpus = load_corpus(corpus_path("hello"))
    arch = _build_text(_two_servers_text(), corpus)
    assert arch.bindings[0].server.owner.name == "server"
    runtime.rebind(arch, "client.s", "server2.s")
    assert len(arch.bindings) == 1
    assert arch.bindings[0].server.owner.name == "server2"
    result = runtime.invoke(arch, "client", "s", "handler")
    assert result.rt_type.defined_by == arch.component("server2").content.defined_by


def test_failed_rebind_keeps_the_old_binding():
    base = load_corpus(corpus_path("hello"))
    entries = {(td.name, td.version): td for td in base.entries()}
    # a second Service version with no method demands, and a content class
    # that does not pull the 1.0 interface into its closure
    entries[("Service", V("2.0"))] = TypeDef("Service", V("2.0"), TypeKind.INTERFACE, (), ())
    entries[("AltImpl", V("1.0"))] = TypeDef("AltImpl", V("1.0"), TypeKind.CLASS,
                                             (TypeRef("Request", V("1.0")),), ())
    corpus = CorpusStore(base.root, entries)
    text = _two_servers_text().replace(
        '<component name="server2">'
        '<interface name="s" role="server" signature="Service" version="1.0"/>'
        '<content class="ServerImpl" version="2.0"/>',
        '<component name="server2">'
        '<interface name="s" role="server" signature="Service" version="2.0"/>'
        '<content class="AltImpl" version="1.0"/>')
    arch = _build_text(text, corpus)
    before = arch.report()
    with pytest.raises(TypeMismatch):
        runtime.rebind(arch, "client.s", "server2.s")
    assert arch.report() == before
    assert arch.bindings[0].server.owner.name == "server"


def test_rebind_checks_the_new_link_once(monkeypatch):
    """Counted: one check loads each end's signature once, and nothing checks it again."""
    arch, _, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    loads = Counter()
    count_calls(monkeypatch, ModuleManager, "load_type", loads)
    runtime.rebind(arch, "client.s", "server.s")
    assert loads["load_type"] == 2
    assert [str(b) for b in arch.bindings] == ["client.s -> server.s"]


def test_a_rebind_of_a_routed_out_port_is_refused_and_keeps_the_route():
    arch = _link_fixture("route_out")
    before = arch.report()
    with pytest.raises(AlreadyBound):
        runtime.rebind(arch, "a.p", "b.i")
    assert arch.report() == before


def test_add_bind_invoke_then_remove_component():
    arch, corpus, _ = build_architecture("hello.fractal.xml", "hello")
    pre_live = arch.mgr.live_ids()
    fragment = parse_component_fragment(
        '<component name="server2">'
        '<interface name="s" role="server" signature="Service" version="1.0"/>'
        '<content class="ServerImpl" version="2.0"/>'
        '<file name="Request" version="1.0"/></component>')
    inst = runtime.add_component(arch, fragment, corpus)
    assert inst.parents == [arch.root]

    runtime.rebind(arch, "client.s", "server2.s")
    assert runtime.invoke(arch, "HelloWorld", "r", "run") is None

    with pytest.raises(CrossBindingExists):
        runtime.remove_component(arch, "server2")
    runtime.unbind_port(arch, "client.s")
    runtime.remove_component(arch, "server2")
    assert "server2" not in arch.components
    # info and private impl modules are gone; interface and shared stay
    assert arch.mgr.live_ids() == pre_live
    assert replay_live_set(arch.mgr.events) == pre_live


def test_removing_the_root_is_refused_as_not_a_primitive():
    arch, _, _ = build_architecture("hello.fractal.xml", "hello")
    before = arch.report()
    with pytest.raises(NotAPrimitive):
        runtime.remove_component(arch, arch.root.name)
    assert arch.report() == before


def test_add_component_failure_rolls_back_modules():
    arch, corpus, _ = build_architecture("hello.fractal.xml", "hello")
    before_live = arch.mgr.live_ids()
    before_report = arch.report()
    fragment = parse_component_fragment(
        '<component name="bad">'
        '<interface name="s" role="server" signature="Service" version="1.0"/>'
        '<content class="ClientImpl" version="1.0"/></component>')
    with pytest.raises(MissingMethod):
        runtime.add_component(arch, fragment, corpus)  # ClientImpl lacks push/handler
    assert arch.mgr.live_ids() == before_live
    assert arch.report() == before_report


def test_add_of_a_port_declared_twice_is_refused_and_rolled_back():
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    before_live = arch.mgr.live_ids()
    before_report = arch.report()
    port = '<interface name="s" role="server" signature="Service" version="1.0"/>'
    fragment = parse_component_fragment(
        f'<component name="x">{port}{port}<content class="ServerImpl" version="2.0"/>'
        '<file name="Request" version="1.0"/></component>')
    with pytest.raises(DuplicatePort) as exc:
        runtime.add_component(arch, fragment, corpus)
    assert exc.value.code == "DuplicatePort"  # the code of validate's diagnostic
    assert arch.mgr.live_ids() == before_live
    assert arch.report() == before_report


SERVER2 = ('<component name="server2">'
           '<interface name="s" role="server" signature="Service" version="1.0"/>'
           '<content class="ServerImpl" version="2.0"/>'
           '<file name="Request" version="1.0"/></component>')


def test_add_refuses_a_plan_whose_wiring_the_manager_does_not_resolve_to(monkeypatch):
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    before_live = arch.mgr.live_ids()
    before_report = arch.report()
    plan = runtime.plan_component

    def crossed(component, corpus, public):
        # Exchange the providers of Service and ServerImpl: the planned modules
        # stay the same, but neither provider exports the pair it is given.
        impl, planned = plan(component, corpus, public)
        (sv, sp), (iv, ip) = planned["Service"], planned["ServerImpl"]
        return impl, {**planned, "Service": (sv, ip), "ServerImpl": (iv, sp)}

    monkeypatch.setattr(runtime, "plan_component", crossed)
    with pytest.raises(UnresolvableExport):
        runtime.add_component(arch, parse_component_fragment(SERVER2), corpus)
    assert arch.mgr.live_ids() == before_live
    assert arch.report() == before_report


class _Injected(Exception):
    pass


def _fail_kth_write(mgr: ModuleManager, monkeypatch, k: int) -> list[int]:
    """Make the k-th manager, structural or link write from now on raise ``_Injected`` (none
    for k=0); return the count. The structural writes are runtime's ``add_child`` and
    ``remove_child``; the link writes are runtime's ``bind`` and ``unbind``, and the
    ``model.unbind`` that ``bind(..., replace=True)`` calls."""
    count = [0]

    def wrap(owner, name):
        def write(*args, _original=getattr(owner, name), **kwargs):
            count[0] += 1
            if count[0] == k:
                raise _Injected(k)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, write)

    for name in ("create_resource_module", "create_info_module", "rewire_import",
                 "_set_wiring", "_make_live", "remove_module"):
        wrap(mgr, name)
    for name in ("add_child", "remove_child", "bind", "unbind"):
        wrap(runtime, name)
    wrap(model, "unbind")
    return count


def _instantiate_into(adl: str, corpus_name: str,
                      granularity: Granularity = Granularity.PER_COMPONENT):
    def build(arch, _):
        definition = parse_adl(adl_path(adl).read_text(encoding="utf-8"))
        corpus = load_corpus(corpus_path(corpus_name))
        instantiate(definition, plan_modules(definition, granularity, corpus), arch.mgr, corpus)
    return build


_FAULTED_OPS = {
    "build-hello": _instantiate_into("hello.fractal.xml", "hello"),
    "build-hello_v1": _instantiate_into("hello_v1.fractal.xml", "hello_swap"),
    "build-single": _instantiate_into("hello.fractal.xml", "hello", Granularity.SINGLE_LOADER),
    "swap": lambda arch, corpus: runtime.swap_implementation(
        arch, "server", ("ServerImpl", "2.0"), corpus),
    "add": lambda arch, corpus: runtime.add_component(
        arch, parse_component_fragment(SERVER2), corpus),
    "remove": lambda arch, corpus: runtime.remove_component(arch, "server2"),
    "remove-middle": lambda arch, corpus: runtime.remove_component(arch, "server"),
    "bind": lambda arch, corpus: runtime.bind_ports(arch, "client.s", "server.s"),
    "unbind": lambda arch, corpus: runtime.unbind_port(arch, "client.s"),
    "rebind": lambda arch, corpus: runtime.rebind(arch, "client.s", "server2.s"),
}

# Every pair a faulted op can make a module export.
_FAULTED_PAIRS = {(td.name, td.version) for name in ("hello", "hello_swap")
                  for td in load_corpus(corpus_path(name)).entries()}


def _faulted_arch(op: str):
    """hello_v1 over hello_swap; the remove op removes, and the rebind op binds to, a server2
    added here, with no links; the bind op binds a client.s unbound here. The remove-middle
    op removes server, which is then not the root's last child and owns two implementation
    modules: server2 is added, client.s unbound and server swapped here."""
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    if op in ("remove", "rebind", "remove-middle"):
        runtime.add_component(arch, parse_component_fragment(SERVER2), corpus)
    if op in ("bind", "remove-middle"):
        runtime.unbind_port(arch, "client.s")
    if op == "remove-middle":
        runtime.swap_implementation(arch, "server", ("ServerImpl", "2.0"), corpus)
    return arch, corpus


def _faulted_state(arch) -> tuple:
    """What a failed op must leave as it found it, each index copied as it is read.

    Each port's binding, route and inbound records are kept as the objects they are,
    so a link dropped and written back anew shows. Indexes are read for every pair a module may export and every id ever used, and
    only their non-empty entries kept, so an entry left behind for a module the op
    created shows too."""
    mgr = arch.mgr
    ids = {event.module_id for event in mgr.events}
    ports = [port for comp in arch.components.values() for port in comp.interfaces]
    return (arch.report(), mgr.live_ids(),
            {str(port): (port.binding, port.route, list(port.inbound)) for port in ports},
            {pair: found for pair in _FAULTED_PAIRS if (found := mgr.exporters_of(pair))},
            {mid: found for mid in ids if (found := mgr.dependents_of(mid))},
            {name: (comp.content, list(comp.impl_modules), list(comp.children))
             for name, comp in arch.components.items()})


@pytest.mark.parametrize("op", sorted(_FAULTED_OPS))
def test_a_failure_at_any_manager_write_leaves_everything_as_it_was(op, monkeypatch):
    arch, corpus = _faulted_arch(op)
    writes = _fail_kth_write(arch.mgr, monkeypatch, 0)
    _FAULTED_OPS[op](arch, corpus)
    assert writes[0] > 0
    for k in range(1, writes[0] + 1):
        monkeypatch.undo()
        arch, corpus = _faulted_arch(op)
        before, seen = _faulted_state(arch), len(arch.mgr.events)
        _fail_kth_write(arch.mgr, monkeypatch, k)
        with pytest.raises(Exception) as exc:
            _FAULTED_OPS[op](arch, corpus)
        assert isinstance(exc.value, _Injected) or isinstance(exc.value.__cause__, _Injected), k
        assert _faulted_state(arch) == before, k
        assert replay_live_set(arch.mgr.events) == arch.mgr.live_ids()
        events = arch.mgr.events[seen:]
        added = [e.module_id for e in events if e.kind is EventKind.ADDED]
        assert [e.module_id for e in events if e.kind is EventKind.REMOVED] == added[::-1], k


def test_structural_reconfiguration_is_gated_by_granularity():
    arch, corpus, _ = build_architecture("hello.fractal.xml", "hello",
                                         Granularity.SINGLE_LOADER)
    fragment = parse_component_fragment(
        '<component name="extra">'
        '<content class="ServerImpl" version="2.0"/></component>')
    with pytest.raises(GranularityForbidsSwap):
        runtime.add_component(arch, fragment, corpus)
    with pytest.raises(GranularityForbidsSwap):
        runtime.remove_component(arch, "server")


# --- randomized receiver-check soundness ------------------------------------------


def _exchange_corpus(param: str, itf_refs_message: bool) -> CorpusStore:
    refs = (TypeRef("Message", V("1.0")),) if itf_refs_message else ()
    index = {}
    for td in [
        TypeDef("Push", V("1.0"), TypeKind.INTERFACE, refs,
                (MethodSig("push", (param,), "void"),)),
        TypeDef("Message", V("1.0"), TypeKind.CLASS, (), ()),
        TypeDef("object", V("0"), TypeKind.CLASS, (), ()),
        TypeDef("HubImpl", V("1.0"), TypeKind.CLASS,
                (TypeRef("Push", V("1.0")), TypeRef("Message", V("1.0"))), ()),
        TypeDef("NodeImpl", V("1.0"), TypeKind.CLASS,
                (TypeRef("Push", V("1.0")), TypeRef("Message", V("1.0"))),
                (MethodSig("push", (param,), "void"),)),
    ]:
        index[(td.name, td.version)] = td
    return CorpusStore(corpus_path("hello"), index)


def _star_text(n_receivers: int, files: list[bool]) -> str:
    parts = ['<definition name="Star" version="1.0">', '<component name="hub">']
    for i in range(n_receivers):
        parts.append(f'<interface name="out{i}" role="client" signature="Push" version="1.0"/>')
    parts.append('<content class="HubImpl" version="1.0"/>')
    if files[0]:
        parts.append('<file name="Message" version="1.0"/>')
    parts.append('</component>')
    for i in range(n_receivers):
        parts.append(f'<component name="node{i}">'
                     f'<interface name="in" role="server" signature="Push" version="1.0"/>'
                     f'<content class="NodeImpl" version="1.0"/>')
        if files[i + 1]:
            parts.append('<file name="Message" version="1.0"/>')
        parts.append('</component>')
    for i in range(n_receivers):
        parts.append(f'<binding client="hub.out{i}" server="node{i}.in"/>')
    parts.append('</definition>')
    return "".join(parts)


def test_receiver_checks_match_the_wiring_oracle_on_random_stars():
    rng = random.Random(424242)
    for _ in range(60):
        n = rng.randint(1, 4)  # up to 5 components
        param = rng.choice(["Message", "object"])
        itf_refs = rng.choice([True, False])
        files = [rng.random() < 0.5 for _ in range(n + 1)]
        corpus = _exchange_corpus(param, itf_refs)
        arch = _build_text(_star_text(n, files), corpus)

        hub_wiring = arch.mgr.module(arch.component("hub").info_module).imports
        value = runtime.make_value(arch, arch.component("hub"), "Message")
        for i in range(n):
            node = arch.component(f"node{i}")
            node_wiring = arch.mgr.module(node.info_module).imports
            # brute-force oracle: resolve the argument's type name through the
            # callee's wiring and compare defining modules
            expect_ok = node_wiring["Message"] == hub_wiring["Message"]
            if expect_ok:
                assert runtime.invoke(arch, "hub", f"out{i}", "push", [value]) is None
            else:
                with pytest.raises(TypeMismatch) as exc:
                    runtime.invoke(arch, "hub", f"out{i}", "push", [value])
                assert exc.value.left_module == hub_wiring["Message"]
                assert exc.value.right_module == node_wiring["Message"]


def _chain_text(k: int, files: list[bool]) -> str:
    parts = ['<definition name="Row" version="1.0">']
    for i in range(k):
        parts.append(f'<component name="c{i}">')
        if i > 0:
            parts.append('<interface name="in" role="server" signature="Push" version="1.0"/>')
        if i < k - 1:
            parts.append('<interface name="out" role="client" signature="Push" version="1.0"/>')
        impl = "NodeImpl" if i > 0 else "HubImpl"
        parts.append(f'<content class="{impl}" version="1.0"/>')
        if files[i]:
            parts.append('<file name="Message" version="1.0"/>')
        parts.append('</component>')
    for i in range(k - 1):
        parts.append(f'<binding client="c{i}.out" server="c{i + 1}.in"/>')
    parts.append('</definition>')
    return "".join(parts)


def test_multi_hop_forwarding_rechecks_at_every_boundary():
    rng = random.Random(777)
    for _ in range(40):
        k = rng.randint(2, 5)
        files = [rng.random() < 0.6 for _ in range(k)]
        corpus = _exchange_corpus("Message", itf_refs_message=False)
        arch = _build_text(_chain_text(k, files), corpus)
        wirings = [arch.mgr.module(arch.component(f"c{i}").info_module).imports["Message"]
                   for i in range(k)]
        first_bad = next((i for i in range(k - 1) if wirings[i] != wirings[i + 1]), None)

        value = runtime.make_value(arch, arch.component("c0"), "Message")
        if first_bad is None:
            assert runtime.invoke(arch, "c0", "out", "push", [value]) is None
        else:
            with pytest.raises(TypeMismatch) as exc:
                runtime.invoke(arch, "c0", "out", "push", [value])
            assert exc.value.left_module == wirings[first_bad]
            assert exc.value.right_module == wirings[first_bad + 1]


def test_outbound_export_routes_type_check_and_dead_end_at_the_root():
    """A child client port may route out through the composite's own client port."""
    corpus = _exchange_corpus("Message", itf_refs_message=True)
    text = ('<definition name="Out" version="1.0">'
            '<interface name="q" role="client" signature="Push" version="1.0"/>'
            '<component name="inner">'
            '<interface name="p" role="client" signature="Push" version="1.0"/>'
            '<content class="HubImpl" version="1.0"/></component>'
            '<binding client="inner.p" server="this.q"/>'
            '</definition>')
    arch = _build_text(text, corpus)
    inner_port = arch.component("inner").port("p")
    assert inner_port.route is arch.root.port("q")
    # the root's own client port is bound to nothing, so the call dead-ends there
    value = runtime.make_value(arch, arch.component("inner"), "Message")
    with pytest.raises(UnboundInterface):
        runtime.invoke(arch, "inner", "p", "push", [value])


def test_a_route_between_two_siblings_is_refused_before_anything_is_written():
    """Routed at each other, two siblings' client ports would send a call nowhere."""
    arch, corpus, _ = build_architecture("hello.fractal.xml", "hello")
    runtime.add_component(arch, parse_component_fragment(
        '<component name="c2">'
        '<interface name="r" role="server" signature="java.lang.Runnable"/>'
        '<interface name="s" role="client" signature="Service" version="1.0"/>'
        '<content class="ClientImpl" version="1.0"/>'
        '<file name="Request" version="1.0"/></component>'), corpus)
    runtime.unbind_port(arch, "client.s")
    before = arch.report()
    with pytest.raises(NotAChild, match="^client is not a child of c2$"):
        model.route(arch.mgr, arch.find_port("client.s"), arch.find_port("c2.s"))
    assert arch.report() == before
    with pytest.raises(UnboundInterface, match="client.s"):
        runtime.invoke(arch, "HelloWorld", "r", "run")


def test_swap_to_a_differently_named_content_class():
    base = load_corpus(corpus_path("hello_swap"))
    entries = {(td.name, td.version): td for td in base.entries()}
    alt = TypeDef("AltServerImpl", V("1.0"), TypeKind.CLASS,
                  (TypeRef("Service", V("1.0")), TypeRef("Request", V("1.0"))),
                  (MethodSig("push", ("Request",), "void"),
                   MethodSig("handler", (), "AltServerImpl")))
    entries[(alt.name, alt.version)] = alt
    corpus = CorpusStore(base.root, entries)
    arch, _, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    old = arch.component("server").content

    record = runtime.swap_implementation(arch, "server", ("AltServerImpl", "1.0"), corpus)
    assert arch.component("server").content.name == "AltServerImpl"
    assert record.new_module != old.defined_by
    # only the content entry moved: the old name is gone, interfaces untouched
    wiring = arch.mgr.module(arch.component("server").info_module).imports
    assert "ServerImpl" not in wiring and wiring["AltServerImpl"] == record.new_module
    assert runtime.invoke(arch, "client", "s", "push",
                          [runtime.make_value(arch, arch.component("client"), "Request")]) is None
    assert all(chk is None for _, chk in arch.binding_checks())


# --- bench --------------------------------------------------------------------

def test_bench_counts_are_deterministic_and_match_the_structure():
    arch, _, _ = build_architecture("chain3.fractal.xml", "chain")
    first = runtime.bench_interception(arch, 7)
    second = runtime.bench_interception(arch, 7)
    # depth through the export is 4 (root plus three nodes), zero-arg methods
    assert first.bookkeeping_ops == 7 * (2 * 4)
    assert first.bookkeeping_ops == second.bookkeeping_ops
    assert first.calls == 7


def test_bench_rejects_zero_calls():
    arch, _, _ = build_architecture("chain3.fractal.xml", "chain")
    with pytest.raises(ValueError):
        runtime.bench_interception(arch, 0)


# --- one planner against the public modules -----------------------------------------

def _corpus_of(*typedefs: TypeDef) -> CorpusStore:
    return CorpusStore(corpus_path("hello"), {(td.name, td.version): td for td in typedefs})


def _cls(name: str, version: str, *refs: tuple[str, str]) -> TypeDef:
    return TypeDef(name, V(version), TypeKind.CLASS,
                   tuple(TypeRef(n, V(v)) for n, v in refs), ())


def _component_xml(name: str, content: str, files=(), sigs=()) -> str:
    ports = "".join(f'<interface name="p{i}" role="server" signature="{sig}" version="1.0"/>'
                    for i, sig in enumerate(sigs))
    declared = "".join(f'<file name="{f}" version="1.0"/>' for f in files)
    return (f'<component name="{name}">{ports}<content class="{content}" version="1.0"/>'
            f'{declared}</component>')


def _definition_xml(components: list[str]) -> str:
    return f'<definition name="D" version="1.0">{"".join(components)}</definition>'


def _private_a_corpus() -> CorpusStore:
    return _corpus_of(_cls("A", "1.0"), _cls("AImpl", "1.0", ("A", "1.0")),
                      _cls("BImpl", "1.0"))


def test_add_refuses_a_file_that_other_components_hold_privately():
    corpus = _private_a_corpus()
    arch = _build_text(_definition_xml([_component_xml("a", "AImpl"),
                                        _component_xml("z", "AImpl")]), corpus)
    private = sorted(arch.mgr.module(arch.component(c).info_module).imports["A"] for c in "az")
    assert private[0] != private[1]
    before, live = arch.report(), arch.mgr.live_ids()
    with pytest.raises(AmbiguousImport) as exc:
        runtime.add_component(arch, parse_component_fragment(
            _component_xml("b", "BImpl", files=["A"])), corpus)
    assert exc.value.name == "A" and list(exc.value.candidates) == private
    assert arch.report() == before and arch.mgr.live_ids() == live


def test_refused_add_leaves_the_private_holder_removable():
    corpus = _private_a_corpus()
    arch = _build_text(_definition_xml([_component_xml("a", "AImpl")]), corpus)
    with pytest.raises(AmbiguousImport):
        runtime.add_component(arch, parse_component_fragment(
            _component_xml("b", "BImpl", files=["A"])), corpus)
    runtime.remove_component(arch, "a")
    assert "a" not in arch.components
    assert arch.mgr.live_ids() == replay_live_set(arch.mgr.events)


def test_swap_rewires_the_whole_private_closure():
    corpus = _corpus_of(_cls("Helper", "1.0"), _cls("Helper", "2.0"),
                        _cls("Impl", "1.0", ("Helper", "1.0")),
                        _cls("Impl", "2.0", ("Helper", "2.0")))
    arch = _build_text(_definition_xml([_component_xml("c", "Impl")]), corpus)
    comp = arch.component("c")
    assert runtime.make_value(arch, comp, "Helper").rt_type.defined_by == comp.content.defined_by

    record = runtime.swap_implementation(arch, "c", ("Impl", "2.0"), corpus)
    helper = runtime.make_value(arch, comp, "Helper").rt_type
    assert helper.defined_by == record.new_module
    assert str(helper.definition.version) == "2.0"
    _, fresh = plan_component(arch.component("c").source, corpus, arch.public)
    info = arch.mgr.module(comp.info_module)
    assert {n: arch.mgr.module(p).exports[n] for n, p in info.imports.items()} == \
        {name: version for name, (version, _) in fresh.items()}
    assert set(info.imports.values()) == {record.new_module}


@st.composite
def _sharing_cases(draw):
    """A corpus with private helper chains, plus 2-5 components (the last one is added)."""
    commons = [f"T{i}" for i in range(draw(st.integers(1, 4)))]
    tds = [_cls(t, "1.0", *[(u, "1.0") for u in commons[i + 1:] if draw(st.booleans())])
           for i, t in enumerate(commons)]
    helpers: list[str] = []
    for k in range(draw(st.integers(1, 3))):
        chain = [f"H{k}_{j}" for j in range(draw(st.integers(0, 3)))]
        for j, h in enumerate(chain):
            refs = chain[j + 1:j + 2] or draw(st.lists(st.sampled_from(commons), max_size=1))
            tds.append(_cls(h, "1.0", *[(r, "1.0") for r in refs]))
        refs = chain[:1] + draw(st.lists(st.sampled_from(commons), max_size=2, unique=True))
        tds.append(_cls(f"Impl{k}", "1.0", *[(r, "1.0") for r in refs]))
        helpers += chain
    sigs = [f"S{i}" for i in range(draw(st.integers(0, 2)))]
    for sig in sigs:
        refs = draw(st.lists(st.sampled_from(commons + helpers), max_size=2, unique=True))
        tds.append(TypeDef(sig, V("1.0"), TypeKind.INTERFACE,
                           tuple(TypeRef(r, V("1.0")) for r in refs), ()))
    impls = sorted({td.name for td in tds if td.name.startswith("Impl")})
    comps = []
    for i in range(draw(st.integers(2, 5))):
        files = draw(st.lists(st.sampled_from(commons + helpers), max_size=2, unique=True))
        ports = draw(st.lists(st.sampled_from(sigs), max_size=2, unique=True)) if sigs else []
        comps.append(_component_xml(f"c{i}", draw(st.sampled_from(impls)), files, ports))
    return _corpus_of(*tds), comps


def _sharing(arch) -> dict[tuple[str, str, str], bool]:
    """For each pair of components and each name both import: one module or not?"""
    wirings = {name: arch.mgr.module(comp.info_module).imports
               for name, comp in arch.components.items() if comp is not arch.root}
    return {(x, y, t): wx[t] == wirings[y][t]
            for x, wx in wirings.items() for y in wirings if x < y
            for t in wx if t in wirings[y]}


@settings(max_examples=300, deadline=None)
@given(_sharing_cases())
def test_build_then_add_shares_like_a_one_step_build(case):
    corpus, comps = case
    whole = _build_text(_definition_xml(comps), corpus)
    arch = _build_text(_definition_xml(comps[:-1]), corpus)
    before = arch.report()
    try:
        runtime.add_component(arch, parse_component_fragment(comps[-1]), corpus)
    except AmbiguousImport:
        assert arch.report() == before
        return
    assert _sharing(arch) == _sharing(whole)


# --- state checks that survive python -O ------------------------------------------

def test_swap_that_would_break_a_binding_is_refused_and_undone(monkeypatch):
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    before, live = arch.report(), arch.mgr.live_ids()
    broken = TypeMismatch("Service", "m1", "m2")
    monkeypatch.setattr(arch, "link_checks", lambda comp: [("client.s -> server.s", broken)])
    with pytest.raises(InvariantViolation):
        runtime.swap_implementation(arch, "server", ("ServerImpl", "2.0"), corpus)
    assert arch.report() == before and arch.mgr.live_ids() == live


def test_a_swap_whose_binding_check_raises_restores_the_info_module():
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    server = arch.component("server")
    before, live = arch.report(), arch.mgr.live_ids()
    source, owned = server.source, list(server.impl_modules)

    def failing_checks(comp):
        raise InvariantViolation("injected failure")

    arch.link_checks = failing_checks
    with pytest.raises(InvariantViolation, match="injected failure"):
        runtime.swap_implementation(arch, "server", ("ServerImpl", "2.0"), corpus)
    assert arch.report() == before and arch.mgr.live_ids() == live
    assert server.source is source and server.impl_modules == owned


@pytest.mark.parametrize("lost", ["impl", "info"])
def test_a_remove_over_a_force_removed_module_is_refused_untouched(lost):
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    added = runtime.add_component(arch, parse_component_fragment(SERVER2), corpus)
    if lost == "impl":  # swapped out, so wired to by none
        runtime.swap_implementation(arch, "server2", ("ServerImpl", "1.0"), corpus)
    arch.mgr.remove_module(added.impl_modules[0] if lost == "impl" else added.info_module)
    before, live, children = arch.report(), arch.mgr.live_ids(), list(arch.root.children)
    with pytest.raises(UnknownModule):
        runtime.remove_component(arch, "server2")
    assert arch.report() == before and arch.mgr.live_ids() == live
    assert arch.component("server2") is added and arch.root.children == children


def test_a_remove_refuses_crossing_bindings_before_a_force_removed_module():
    """The crossing links are found before any module is removed, so a component that has
    both is refused with ``CrossBindingExists``, not ``UnknownModule``, and nothing moves."""
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    server = arch.component("server")
    arch.mgr.remove_module(server.info_module)
    before, live, children = arch.report(), arch.mgr.live_ids(), list(arch.root.children)
    with pytest.raises(CrossBindingExists):
        runtime.remove_component(arch, "server")
    assert arch.report() == before and arch.mgr.live_ids() == live
    assert arch.component("server") is server and arch.root.children == children


# --- each primitive owns its modules --------------------------------------------------

def _assert_each_module_has_one_owner(arch) -> None:
    owned = list(set(arch.public.values()))
    for comp in arch.components.values():
        owned += [comp.info_module] if comp.info_module is not None else []
        owned += comp.impl_modules
    assert len(owned) == len(set(owned)), "a module is owned twice"
    assert set(owned) == arch.mgr.live_ids()


def _assert_each_info_module_is_wired_as_planned(arch, corpus) -> None:
    for comp in arch.components.values():
        if comp.kind is not ComponentKind.PRIMITIVE:
            continue
        _, planned = plan_component(comp.source, corpus, arch.public)
        info = arch.mgr.module(comp.info_module)
        assert {n: arch.mgr.module(p).exports[n] for n, p in info.imports.items()} == \
            {n: v for n, (v, _) in planned.items()}
        assert info.imports == {n: comp.impl_modules[-1] if isinstance(p, ResourcePlan)
                                else arch.public[(n, v)] for n, (v, p) in planned.items()}


def _assert_the_index_and_the_port_checks_match_their_scans(arch) -> None:
    """Every import of every live info module, the root's included, names a live resource
    module exporting it; ``dependents_of`` equals a scan of every wiring; ``exporters_of``
    equals a scan of every live resource module's exports; ``link_checks(comp)`` is exactly
    the part of ``binding_checks()`` with an end at ``comp``."""
    mgr = arch.mgr
    for info in mgr.info_modules():
        for name, pid in info.imports.items():
            assert pid in mgr.live_ids(), f"{info.id} imports {name} from dead {pid}"
            provider = mgr.module(pid)
            assert isinstance(provider, ResourceModule) and name in provider.exports
    for mid in mgr.live_ids():
        assert mgr.dependents_of(mid) == [i.id for i in mgr.info_modules()
                                          if mid in i.imports.values()]
    exporters = {}
    for module in mgr.resource_modules():
        for pair in module.exports.items():
            exporters.setdefault(pair, []).append(module.id)
    assert set(mgr._exporters) == set(exporters)
    for pair, ids in exporters.items():
        assert mgr.exporters_of(pair) == ids
    every = [((label, chk is None), (a.owner, b.owner))
             for (label, chk), (_, _, a, b) in zip(arch.binding_checks(), arch._links())]
    for comp in arch.components.values():
        assert sorted((label, chk is None) for label, chk in arch.link_checks(comp)) == \
            sorted(check for check, ends in every if comp in ends)


def _refuse_the_swap(comp):
    raise InvariantViolation("post-swap check refused")


def _helper_corpus() -> CorpusStore:
    return _corpus_of(_cls("Helper", "1.0"), _cls("Helper", "2.0"),
                      _cls("Impl", "1.0", ("Helper", "1.0")),
                      _cls("Impl", "2.0", ("Helper", "2.0")))


_SERVER_XML = ('<component name="{name}"><interface name="s" role="server" '
               'signature="Service" version="1.0"/><content class="ServerImpl" '
               'version="{version}"/>{files}</component>')
# Per case: the swap targets, and a fragment for a new primitive declaring at most one file.
_OWNERSHIP_CASES = {
    "hello_v1": ([("ServerImpl", "1.0"), ("ServerImpl", "2.0"), ("ClientImpl", "1.0"),
                  ("Ghost", "1.0")],
                 lambda name, version, file: _SERVER_XML.format(
                     name=name, version=version,
                     files=f'<file name="{file}" version="{version}"/>' if file else "")),
    "helpers": ([("Impl", "1.0"), ("Impl", "2.0"), ("Helper", "2.0")],
                lambda name, version, file: _component_xml(name, "Impl",
                                                           ["Helper"] if file else [])),
}


def _ownership_arch(case: str):
    if case == "hello_v1":
        arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
        return arch, corpus
    corpus = _helper_corpus()
    return _build_text(_definition_xml([_component_xml("a", "Impl"),
                                        _component_xml("b", "Impl")]), corpus), corpus


@pytest.mark.parametrize("case", sorted(_OWNERSHIP_CASES))
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["swap", "undone", "add", "remove"]),
                              st.integers(0, 20),
                              st.integers(0, 3), st.sampled_from(["1.0", "2.0"]),
                              st.sampled_from([None, "Request", "ServerImpl"])),
                    max_size=25))
def test_live_modules_are_exactly_what_the_components_and_the_public_index_own(case, ops):
    arch, corpus = _ownership_arch(case)
    targets, fragment = _OWNERSHIP_CASES[case]
    _assert_each_module_has_one_owner(arch)
    _assert_each_info_module_is_wired_as_planned(arch, corpus)
    _assert_the_index_and_the_port_checks_match_their_scans(arch)
    for n, (kind, pick, variant, version, file) in enumerate(ops):
        names = sorted(arch.components)
        name = names[pick % len(names)]
        try:
            if kind == "swap":
                runtime.swap_implementation(arch, name, targets[variant % len(targets)], corpus)
            elif kind == "undone":  # the post-swap check fails, so a rewired swap is undone
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(arch, "link_checks", _refuse_the_swap)
                    runtime.swap_implementation(arch, name, targets[variant % len(targets)],
                                                corpus)
            elif kind == "add":
                fresh = name if variant == 0 else f"x{n}"
                runtime.add_component(arch, parse_component_fragment(
                    fragment(fresh, version, file)), corpus)
            else:
                runtime.remove_component(arch, name)
        except ReconfigError:
            pass
        _assert_each_module_has_one_owner(arch)
        _assert_each_info_module_is_wired_as_planned(arch, corpus)
        _assert_the_index_and_the_port_checks_match_their_scans(arch)


def test_removing_a_swapped_component_removes_every_implementation_module_it_owned():
    corpus = _helper_corpus()
    arch = _build_text(_definition_xml([_component_xml("a", "Impl")]), corpus)
    added = runtime.add_component(arch, parse_component_fragment(
        _component_xml("b", "Impl")), corpus)
    runtime.swap_implementation(arch, "b", ("Impl", "2.0"), corpus)
    runtime.swap_implementation(arch, "b", ("Impl", "1.0"), corpus)
    owned = list(added.impl_modules)
    assert len(set(owned)) == 3 and set(owned) <= arch.mgr.live_ids()
    runtime.remove_component(arch, "b")
    assert not set(owned) & arch.mgr.live_ids()
    _assert_each_module_has_one_owner(arch)


# --- links live on the ports --------------------------------------------------------

def test_a_library_unbind_leaves_no_dead_binding_in_any_view():
    arch, _, _ = build_architecture("hello.fractal.xml", "hello")
    record = arch.bindings[0]
    unbind(record)
    assert arch.bindings == []
    assert [desc for desc, _ in arch.binding_checks()] == ["this.r -> client.r"]
    with pytest.raises(UnknownBinding):
        unbind(record)
    runtime.bind_ports(arch, "client.s", "server.s")
    assert [line for line in arch.report().splitlines() if line.startswith("binding ")] == \
        ["binding client.s -> server.s"]


def _link_fixture(name: str):
    if name == "chain3":
        return build_architecture("chain3.fractal.xml", "chain")[0]
    if name == "two_servers":
        return _build_text(_two_servers_text(), load_corpus(corpus_path("hello")))
    return _build_text('<definition name="Out" version="1.0">'
                       '<interface name="q" role="client" signature="Push" version="1.0"/>'
                       '<component name="a">'
                       '<interface name="p" role="client" signature="Push" version="1.0"/>'
                       '<interface name="i" role="server" signature="Push" version="1.0"/>'
                       '<content class="NodeImpl" version="1.0"/></component>'
                       '<component name="b">'
                       '<interface name="p" role="client" signature="Push" version="1.0"/>'
                       '<interface name="i" role="server" signature="Push" version="1.0"/>'
                       '<content class="NodeImpl" version="1.0"/></component>'
                       '<binding client="a.p" server="this.q"/>'
                       '</definition>', _exchange_corpus("Message", itf_refs_message=True))


_LINK_OPS = ("bind_ports", "unbind_port", "rebind", "bind", "unbind", "remove")


def _crosses_its_boundary(arch, comp) -> bool:
    """Whether any link has exactly one end at ``comp``, read off the raw port attributes."""
    return (any(p.binding is not None and p.binding.server.owner is not comp
                or p.route is not None for p in comp.interfaces)
            or any(rec.client.owner is not comp for p in comp.interfaces for rec in p.inbound)
            or any(p.route is not None and p.route.owner is comp
                   for p in arch.root.server_ports()))


def _remove_checking_the_crossing_oracle(arch, pick: int) -> None:
    primitives = [c for _, c in sorted(arch.components.items()) if c is not arch.root]
    if not primitives:
        return
    victim = primitives[pick % len(primitives)]
    crosses = _crosses_its_boundary(arch, victim)
    try:
        runtime.remove_component(arch, victim.name)
    except ReconfigError as exc:
        assert crosses and isinstance(exc, CrossBindingExists), exc
    else:
        assert not crosses


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["chain3", "two_servers", "route_out"]),
       st.lists(st.tuples(st.sampled_from(_LINK_OPS), st.integers(0, 15), st.integers(0, 15)),
                max_size=20))
def test_every_view_of_the_links_matches_the_ports_after_every_operation(fixture, ops):
    arch = _link_fixture(fixture)
    ports = [port for comp in arch.components.values() for port in comp.interfaces]
    records = list(arch.bindings)  # every record ever made, so unbind also meets stale ones
    for kind, i, j in ops:
        a, b = ports[i % len(ports)], ports[j % len(ports)]
        try:
            if kind == "remove":
                _remove_checking_the_crossing_oracle(arch, i)
            elif kind == "bind":
                records.append(bind(arch.mgr, a, b))
            elif kind == "unbind":
                if records:
                    unbind(records[i % len(records)])
            elif kind == "unbind_port":
                runtime.unbind_port(arch, str(a))
            else:
                records.append(getattr(runtime, kind)(arch, str(a), str(b)))
        except ReconfigError:
            pass
        comps = sorted(arch.components.values(), key=lambda c: c.name)
        assert not any(p.binding is not None and p.route is not None
                       for c in comps for p in c.interfaces)
        live = [p.binding for c in comps for p in c.client_ports() if p.binding is not None]
        assert arch.bindings == live
        assert sorted(id(r) for c in comps for p in c.server_ports() for r in p.inbound) == \
            sorted(id(r) for r in live)
        assert sorted(line for line in arch.report().splitlines()
                      if line.startswith("binding ")) == sorted(f"binding {r}" for r in live)
        routes = sum(p.route is not None for c in comps for p in c.interfaces)
        checks = [desc for desc, _ in arch.binding_checks()]
        assert len(checks) == len(live) + routes
        assert checks[:len(live)] == [str(r) for r in live]
        _assert_the_index_and_the_port_checks_match_their_scans(arch)


def test_a_cyclic_chain_stops_at_the_call_depth_cap():
    arch, _, _ = build_architecture("chain3.fractal.xml", "chain")
    runtime.unbind_port(arch, "n2.out")
    runtime.bind_ports(arch, "n2.out", "n1.in")
    before = arch.report()
    with pytest.raises(CallDepthExceeded):
        runtime.invoke(arch, "Chain", "head", "next")
    kinds = [event.kind for event in arch.trace]
    assert kinds.count(runtime.ENTER) == kinds.count(runtime.EXIT) == 64
    assert not arch.in_call
    assert arch.report() == before


def test_the_call_depth_cap_admits_exactly_the_frames_a_call_enters(monkeypatch):
    arch, _, _ = build_architecture("chain3.fractal.xml", "chain")
    runtime.invoke(arch, "Chain", "head", "next")
    frames = [event.kind for event in arch.trace].count(runtime.ENTER)
    assert frames == 4  # the root and three nodes, each inside the one before
    monkeypatch.setattr(runtime, "MAX_CALL_DEPTH", frames)
    assert runtime.invoke(arch, "Chain", "head", "next") is None
    monkeypatch.setattr(runtime, "MAX_CALL_DEPTH", frames - 1)
    with pytest.raises(CallDepthExceeded):
        runtime.invoke(arch, "Chain", "head", "next")
    assert not arch.in_call


# --- reconfiguration costs what it touches --------------------------------------------

def _chain_swap_corpus() -> CorpusStore:
    base = _exchange_corpus("Message", itf_refs_message=False)
    node = base.lookup(TypeRef("NodeImpl", V("1.0")))
    return _corpus_of(*base.entries(), dataclasses.replace(node, version=V("2.0")))


def _count_wiring_reads(patch, counts: Counter) -> None:
    def read(info):
        counts["wiring_reads"] += 1
        return info.__dict__["imports"]

    def write(info, imports):
        info.__dict__["imports"] = imports

    patch.setattr(InfoModule, "imports", property(read, write), raising=False)


def _count_link_checks(patch, counts: Counter) -> None:
    for name in ("check_binding", "check_route"):
        count_calls(patch, factory, name, counts)


def _work_of_one_swap_and_one_remove(n: int) -> dict[str, Counter]:
    """Link checks and wiring reads of swapping, then removing, the middle of an n-chain."""
    corpus = _chain_swap_corpus()
    arch = _build_text(_chain_text(n, [True] * n), corpus)
    middle = f"c{n // 2}"
    work = {"swap": Counter(), "remove": Counter()}
    with pytest.MonkeyPatch.context() as patch:
        _count_link_checks(patch, work["swap"])
        _count_wiring_reads(patch, work["swap"])
        runtime.swap_implementation(arch, middle, ("NodeImpl", "2.0"), corpus)
    runtime.unbind_port(arch, f"c{n // 2 - 1}.out")
    runtime.unbind_port(arch, f"{middle}.out")
    with pytest.MonkeyPatch.context() as patch:
        _count_link_checks(patch, work["remove"])
        _count_wiring_reads(patch, work["remove"])
        runtime.remove_component(arch, middle)
    return work


def test_a_swap_and_a_remove_do_the_same_work_at_100_and_1000_primitives():
    small, large = _work_of_one_swap_and_one_remove(100), _work_of_one_swap_and_one_remove(1000)
    assert small == large
    assert small["swap"]["check_binding"] == 2  # the bindings into and out of the middle
    assert small["remove"]["wiring_reads"] > 0


def _manager_writes_of_a_refused_remove(n: int, swaps: int) -> Counter:
    """Manager writes, undo included, of removing the still-bound middle of an n-chain
    once it has been swapped ``swaps`` times, each swap leaving it one more module."""
    corpus = _chain_swap_corpus()
    arch = _build_text(_chain_text(n, [True] * n), corpus)
    middle = f"c{n // 2}"
    for i in range(swaps):
        runtime.swap_implementation(arch, middle, ("NodeImpl", "1.0" if i % 2 else "2.0"),
                                    corpus)
    assert len(arch.component(middle).impl_modules) == 1 + swaps
    before, live = arch.report(), arch.mgr.live_ids()
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("remove_module", "_set_wiring", "_make_live"):
            count_calls(patch, arch.mgr, name, counts)
        with pytest.raises(CrossBindingExists):
            runtime.remove_component(arch, middle)
    assert arch.report() == before and arch.mgr.live_ids() == live
    return counts


def test_undoing_a_refused_remove_writes_the_same_at_100_and_1000_primitives():
    # the crossing bindings refuse the remove before it writes, so there is nothing to undo,
    # however many modules the component owns
    for n in (100, 1000):
        for swaps in (0, 50):
            assert _manager_writes_of_a_refused_remove(n, swaps) == Counter(), (n, swaps)


def _manager_writes_of_a_swap_and_a_remove(n: int) -> dict[str, Counter]:
    """Manager writes of swapping the middle of an n-chain, then of removing it once unbound."""
    corpus = _chain_swap_corpus()
    arch = _build_text(_chain_text(n, [True] * n), corpus)
    middle = f"c{n // 2}"
    writes = {"swap": Counter(), "remove": Counter()}
    with pytest.MonkeyPatch.context() as patch:
        for name in ("remove_module", "_set_wiring", "_make_live"):
            count_calls(patch, arch.mgr, name, writes["swap"])
        runtime.swap_implementation(arch, middle, ("NodeImpl", "2.0"), corpus)
    runtime.unbind_port(arch, f"c{n // 2 - 1}.out")
    runtime.unbind_port(arch, f"{middle}.out")
    comp = arch.component(middle)
    live, owned = arch.mgr.live_ids(), {comp.info_module, *comp.impl_modules}
    with pytest.MonkeyPatch.context() as patch:
        for name in ("remove_module", "_set_wiring", "_make_live"):
            count_calls(patch, arch.mgr, name, writes["remove"])
        runtime.remove_component(arch, middle)
    assert arch.mgr.live_ids() == live - owned and len(owned) == 3
    return writes


def test_a_swap_and_a_remove_make_the_same_manager_writes_at_100_and_1000_primitives():
    small = _manager_writes_of_a_swap_and_a_remove(100)
    assert small == _manager_writes_of_a_swap_and_a_remove(1000)
    # the swap creates its implementation module and rewires the info module, nothing else
    assert small["swap"] == {"_make_live": 1, "_set_wiring": 1}
    # the remove takes away the info module and both implementation modules, nothing else
    assert small["remove"] == {"remove_module": 3}


# --- re-planning a component is mostly dictionary hits ---------------------------------

def _corpus_walks_of_swapping_there_and_back(n: int) -> list[Counter]:
    """Closure walks and corpus lookups of each of three swaps of the middle of an
    n-chain: to NodeImpl 2.0, back to 1.0, and to 2.0 again."""
    corpus = _chain_swap_corpus()
    arch = _build_text(_chain_text(n, [True] * n), corpus)
    work = []
    for version in ("2.0", "1.0", "2.0"):
        counts = Counter()
        with pytest.MonkeyPatch.context() as patch:
            count_calls(patch, CorpusStore, "closure", counts)
            count_calls(patch, CorpusStore, "lookup", counts)
            runtime.swap_implementation(arch, f"c{n // 2}", ("NodeImpl", version), corpus)
        work.append(counts)
    return work


def test_a_swap_back_to_a_planned_version_walks_no_references():
    small, large = _corpus_walks_of_swapping_there_and_back(100), \
        _corpus_walks_of_swapping_there_and_back(1000)
    assert small == large
    first, back, again = small
    assert first["closure"] == 1       # NodeImpl 2.0 was never planned before
    assert back["closure"] == again["closure"] == 0
    assert back["lookup"] == again["lookup"] == 0


def _module_reads_of_an_add_that_makes_a_pair_public(n: int) -> Counter:
    corpus = _corpus_of(*_chain_swap_corpus().entries(), _cls("Extra", "1.0"),
                        _cls("ExtraImpl", "1.0", ("Extra", "1.0")))
    arch = _build_text(_chain_text(n, [True] * n), corpus)
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        count_calls(patch, arch.mgr, "module", counts)
        runtime.add_component(arch, parse_component_fragment(
            _component_xml("x", "ExtraImpl", files=["Extra"])), corpus)
    assert ("Extra", V("1.0")) in arch.public
    return counts


def test_an_add_that_makes_a_pair_public_reads_as_many_modules_at_100_and_1000_primitives():
    assert _module_reads_of_an_add_that_makes_a_pair_public(100) == \
        _module_reads_of_an_add_that_makes_a_pair_public(1000)


def test_link_checks_format_only_the_labels_they_return():
    n, exported = 12, (2, 5, 9)
    text = _chain_text(n, [True] * n)
    text = text.replace('version="1.0">', 'version="1.0">' + "".join(
        f'<interface name="e{j}" role="server" signature="Push" version="1.0"/>'
        for j in exported), 1)
    text = text.replace("</definition>", "".join(
        f'<binding client="this.e{j}" server="c{j}.in"/>' for j in exported) + "</definition>")
    arch = _build_text(text, _chain_swap_corpus())
    real = model.InterfacePort.__str__
    for comp in arch.components.values():
        counts = Counter()

        def counted(port):
            counts["port labels"] += 1
            return real(port)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model.InterfacePort, "__str__", counted)
            checks = arch.link_checks(comp)
        # a binding's label names two ports, a route's one
        assert counts["port labels"] == sum(1 if label.startswith("this.") or " -> this." in label
                                            else 2 for label, _ in checks)
