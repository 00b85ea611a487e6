from __future__ import annotations

import random

import pytest

from reconfig.corpus import CorpusStore, TypeDef, TypeKind, VersionTag
from reconfig.errors import (
    AmbiguousImport,
    ConflictingExports,
    ConflictingImports,
    InUse,
    InvariantViolation,
    MissingImport,
    NotImported,
    UnknownModule,
    UnresolvableExport,
)
from reconfig.modules import (
    EventKind,
    ModuleManager,
    replay_live_set,
    same_type,
)

from conftest import corpus_path
from reconfig.corpus import load_corpus


def _mem_store(*pairs) -> CorpusStore:
    index = {}
    for name, version in pairs:
        tag = VersionTag(version)
        index[(name, tag)] = TypeDef(name, tag, TypeKind.CLASS, (), ())
    return CorpusStore(corpus_path("hello"), index)


def _pair(name, version):
    return (name, VersionTag(version))


@pytest.fixture
def hello():
    return load_corpus(corpus_path("hello"))


def test_create_resource_module_verifies_exports(hello):
    mgr = ModuleManager()
    mid = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    assert mid in mgr.live_ids()
    assert [e.kind for e in mgr.events] == [EventKind.ADDED]

    assert mgr.create_resource_module([], hello) in mgr.live_ids()

    with pytest.raises(UnresolvableExport):
        mgr.create_resource_module([_pair("Ghost", "9.9")], hello)


def test_one_version_per_name_per_module(hello):
    store = _mem_store(("Request", "1.0"), ("Request", "2.0"))
    mgr = ModuleManager()
    with pytest.raises(ConflictingExports):
        mgr.create_resource_module([_pair("Request", "1.0"), _pair("Request", "2.0")], store)
    with pytest.raises(ConflictingImports):
        src = mgr.create_resource_module([_pair("Request", "1.0")], store)
        mgr.create_info_module([_pair("Request", "1.0"), _pair("Request", "2.0")],
                               providers=[src])


def test_info_module_wiring_and_missing_import(hello):
    mgr = ModuleManager()
    itf = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module([_pair("Service", "1.0")])
    assert mgr.module(info).wiring == {"Service": itf}

    assert mgr.module(mgr.create_info_module([])).wiring == {}

    with pytest.raises(MissingImport):
        mgr.create_info_module([_pair("Request", "1.0")])


def test_two_exporters_make_an_import_ambiguous(hello):
    mgr = ModuleManager()
    a = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    b = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    # oracle: count the matching exporters directly
    exporters = [m.id for m in mgr.resource_modules()
                 if m.exports_pair("Service", VersionTag("1.0"))]
    assert exporters == [a, b]
    with pytest.raises(AmbiguousImport) as exc:
        mgr.create_info_module([_pair("Service", "1.0")])
    assert list(exc.value.candidates) == exporters
    # restricting the candidates resolves it
    info = mgr.create_info_module([_pair("Service", "1.0")], providers=[b])
    assert mgr.module(info).wiring == {"Service": b}


def test_load_type_caches_and_is_idempotent(hello):
    mgr = ModuleManager()
    mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module([_pair("Service", "1.0")])
    first = mgr.load_type(info, "Service")
    second = mgr.load_type(info, "Service")
    assert first is second and same_type(first, second)


def test_shared_provider_gives_one_identity_private_copies_two(hello):
    mgr = ModuleManager()
    shared = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    client = mgr.create_info_module([_pair("Service", "1.0")], providers=[shared])
    server = mgr.create_info_module([_pair("Service", "1.0")], providers=[shared])
    assert same_type(mgr.load_type(client, "Service"), mgr.load_type(server, "Service"))

    copy_a = mgr.create_resource_module([_pair("Request", "1.0")], hello)
    copy_b = mgr.create_resource_module([_pair("Request", "1.0")], hello)
    info_a = mgr.create_info_module([_pair("Request", "1.0")], providers=[copy_a])
    info_b = mgr.create_info_module([_pair("Request", "1.0")], providers=[copy_b])
    assert not same_type(mgr.load_type(info_a, "Request"), mgr.load_type(info_b, "Request"))


def test_same_type_is_exactly_the_name_module_pair(hello):
    mgr = ModuleManager()
    res = mgr.create_resource_module([_pair("Service", "1.0"), _pair("Request", "1.0")], hello)
    info = mgr.create_info_module([_pair("Service", "1.0"), _pair("Request", "1.0")])
    service = mgr.load_type(info, "Service")
    request = mgr.load_type(info, "Request")
    assert same_type(service, service)
    assert not same_type(service, request)  # same module, different name
    assert service.defined_by == res == request.defined_by


def test_load_type_requires_an_info_module_and_a_wired_name(hello):
    mgr = ModuleManager()
    res = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module([_pair("Service", "1.0")])
    with pytest.raises(NotImported):
        mgr.load_type(info, "Request")
    with pytest.raises(UnknownModule):
        mgr.load_type(res, "Service")


def test_wiring_to_an_info_module_is_an_invariant_violation(hello):
    mgr = ModuleManager()
    mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module([_pair("Service", "1.0")])
    other = mgr.create_info_module([_pair("Service", "1.0")])
    mgr.module(info).wiring["Service"] = other
    with pytest.raises(InvariantViolation):
        mgr.load_type(info, "Service")


def test_removal_with_a_non_info_dependent_is_refused_untouched(hello, monkeypatch):
    mgr = ModuleManager()
    itf = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module([_pair("Service", "1.0")])
    other = mgr.create_resource_module([_pair("Request", "1.0")], hello)
    monkeypatch.setattr(mgr, "dependents_of", lambda module_id: [info, other])
    with pytest.raises(InvariantViolation):
        mgr.remove_module(itf, force=True)
    assert itf in mgr.live_ids()
    assert mgr.module(info).wiring == {"Service": itf}


def test_remove_unreferenced_module(hello):
    mgr = ModuleManager()
    mid = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    report = mgr.remove_module(mid)
    assert report.invalidated == ()
    assert [e.kind for e in mgr.events] == [EventKind.ADDED, EventKind.REMOVED]
    assert mid not in mgr.live_ids()
    with pytest.raises(UnknownModule):
        mgr.remove_module(mid)


def test_remove_wired_module_refused_then_forced(hello):
    mgr = ModuleManager()
    itf = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info1 = mgr.create_info_module([_pair("Service", "1.0")])
    info2 = mgr.create_info_module([_pair("Service", "1.0")])
    # oracle: scan all wirings for the provider
    dependents = [m.id for m in mgr.info_modules() if itf in m.wiring.values()]
    assert dependents == [info1, info2]

    with pytest.raises(InUse) as exc:
        mgr.remove_module(itf, force=False)
    assert list(exc.value.dependents) == dependents

    report = mgr.remove_module(itf, force=True)
    assert list(report.invalidated) == dependents
    with pytest.raises(NotImported):
        mgr.load_type(info1, "Service")


def test_defined_types_survive_module_removal(hello):
    mgr = ModuleManager()
    itf = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module([_pair("Service", "1.0")])
    loaded = mgr.load_type(info, "Service")
    mgr.remove_module(itf, force=True)
    assert loaded.name == "Service" and loaded.defined_by == itf
    assert loaded.definition.kind is TypeKind.INTERFACE


def test_subscription_delivery_and_cancellation(hello):
    mgr = ModuleManager()
    seen = []
    sub = mgr.subscribe(seen.append)
    a = mgr.create_resource_module([], hello)
    b = mgr.create_resource_module([], hello)
    c = mgr.create_resource_module([], hello)
    assert [(e.kind, e.module_id) for e in seen] == [
        (EventKind.ADDED, a), (EventKind.ADDED, b), (EventKind.ADDED, c)]

    late = []
    mgr.subscribe(late.append)
    assert late == []  # no retroactive delivery

    sub.cancel()
    mgr.remove_module(a)
    assert len(seen) == 3
    assert [e.kind for e in late] == [EventKind.REMOVED]


def test_event_log_replay_reconstructs_live_set(hello):
    rng = random.Random(3)
    mgr = ModuleManager()
    for _ in range(60):
        live = sorted(mgr.live_ids())
        if live and rng.random() < 0.4:
            mgr.remove_module(rng.choice(live), force=True)
        else:
            mgr.create_resource_module([], hello)
        assert replay_live_set(mgr.events) == mgr.live_ids()


def test_module_ids_are_never_reused(hello):
    mgr = ModuleManager()
    a = mgr.create_resource_module([], hello)
    mgr.remove_module(a)
    b = mgr.create_resource_module([], hello)
    assert a != b


def test_resolution_is_deterministic_under_insertion_order(hello):
    specs = [("alpha", [("Service", "1.0")]),
             ("beta", [("Request", "1.0")]),
             ("gamma", [("ClientImpl", "1.0"), ("java.lang.Runnable", "0")])]
    imports = [_pair("Service", "1.0"), _pair("Request", "1.0"),
               _pair("java.lang.Runnable", "0")]

    def build(order):
        mgr = ModuleManager()
        label_of = {}
        for label, exports in order:
            mid = mgr.create_resource_module([_pair(n, v) for n, v in exports], hello)
            label_of[mid] = label
        info = mgr.create_info_module(imports)
        return {name: label_of[mid] for name, mid in mgr.module(info).wiring.items()}

    rng = random.Random(5)
    baseline = build(specs)
    for _ in range(10):
        shuffled = specs[:]
        rng.shuffle(shuffled)
        assert build(shuffled) == baseline


def test_rewire_import_moves_exactly_one_entry(hello):
    swap_corpus = load_corpus(corpus_path("hello_swap"))
    mgr = ModuleManager()
    old = mgr.create_resource_module([_pair("ServerImpl", "1.0")], swap_corpus)
    itf = mgr.create_resource_module([_pair("Service", "1.0")], swap_corpus)
    info = mgr.create_info_module([_pair("ServerImpl", "1.0"), _pair("Service", "1.0")],
                                  providers=[old, itf])
    new = mgr.create_resource_module([_pair("ServerImpl", "2.0")], swap_corpus)
    mgr.rewire_import(info, {"ServerImpl": (VersionTag("2.0"), new),
                             "Service": (VersionTag("1.0"), itf)})
    wiring = mgr.module(info).wiring
    assert wiring["ServerImpl"] == new and wiring["Service"] == itf
    with pytest.raises(UnresolvableExport):  # all or nothing: the valid entry is not applied
        mgr.rewire_import(info, {"ServerImpl": (VersionTag("1.0"), old),
                                 "Service": (VersionTag("3.0"), itf)})
    assert mgr.module(info).wiring == {"ServerImpl": new, "Service": itf}
    assert mgr.module(info).imports == {"ServerImpl": VersionTag("2.0"),
                                        "Service": VersionTag("1.0")}
