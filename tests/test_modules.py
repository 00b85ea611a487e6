from __future__ import annotations

import ast
import random
from collections import Counter
from pathlib import Path

import pytest

from reconfig.corpus import CorpusStore, TypeDef, TypeKind, VersionTag
from reconfig.errors import (
    AmbiguousImport,
    ConflictingExports,
    InUse,
    InvariantViolation,
    NotImported,
    UnknownModule,
    UnresolvableExport,
)
from reconfig import runtime
from reconfig.modules import (
    EventKind,
    ModuleId,
    ModuleManager,
    replay_live_set,
    same_type,
)

from conftest import build_architecture, corpus_path, table_from_index
from reconfig.corpus import load_corpus

SRC = Path(__file__).parent.parent / "src" / "reconfig"


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


def test_info_module_wiring_and_missing_import(hello):
    mgr = ModuleManager()
    itf = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    assert mgr.module(info).imports == {"Service": itf}

    assert mgr.module(mgr.create_info_module({})).imports == {}

    assert mgr.exporters_of(_pair("Request", "1.0")) == []
    with pytest.raises(UnresolvableExport):  # a pair no live module exports
        mgr.create_info_module({"Request": (VersionTag("1.0"), itf)})


def test_two_exporters_make_an_import_ambiguous(hello):
    mgr = ModuleManager()
    a = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    b = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    # oracle: count the matching exporters directly
    exporters = [m.id for m in mgr.resource_modules()
                 if m.exports.get("Service") == VersionTag("1.0")]
    assert exporters == [a, b]
    with pytest.raises(AmbiguousImport) as exc:
        table_from_index(mgr, [_pair("Service", "1.0")])
    assert list(exc.value.candidates) == exporters
    # a planned table picks one
    info = mgr.create_info_module({"Service": (VersionTag("1.0"), b)})
    assert mgr.module(info).imports == {"Service": b}


def test_load_type_caches_and_is_idempotent(hello):
    mgr = ModuleManager()
    mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    first = mgr.load_type(info, "Service")
    second = mgr.load_type(info, "Service")
    assert first is second and same_type(first, second)


def test_shared_provider_gives_one_identity_private_copies_two(hello):
    mgr = ModuleManager()
    shared = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    client, server = (mgr.create_info_module({"Service": (VersionTag("1.0"), shared)})
                      for _ in range(2))
    assert same_type(mgr.load_type(client, "Service"), mgr.load_type(server, "Service"))

    copy_a = mgr.create_resource_module([_pair("Request", "1.0")], hello)
    copy_b = mgr.create_resource_module([_pair("Request", "1.0")], hello)
    info_a = mgr.create_info_module({"Request": (VersionTag("1.0"), copy_a)})
    info_b = mgr.create_info_module({"Request": (VersionTag("1.0"), copy_b)})
    assert not same_type(mgr.load_type(info_a, "Request"), mgr.load_type(info_b, "Request"))


def test_same_type_is_exactly_the_name_module_pair(hello):
    mgr = ModuleManager()
    res = mgr.create_resource_module([_pair("Service", "1.0"), _pair("Request", "1.0")], hello)
    info = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0"),
                                                         _pair("Request", "1.0")]))
    service = mgr.load_type(info, "Service")
    request = mgr.load_type(info, "Request")
    assert same_type(service, service)
    assert not same_type(service, request)  # same module, different name
    assert service.defined_by == res == request.defined_by


def test_load_type_requires_an_info_module_and_a_wired_name(hello):
    mgr = ModuleManager()
    res = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    with pytest.raises(NotImported):
        mgr.load_type(info, "Request")
    with pytest.raises(UnknownModule):
        mgr.load_type(res, "Service")


def test_a_resource_module_defines_only_what_it_exports(hello):
    mgr = ModuleManager()
    res = mgr.module(mgr.create_resource_module([_pair("Service", "1.0")], hello))
    assert _pair("Request", "1.0") in hello  # the corpus holds it; the module does not export it
    with pytest.raises(NotImported, match="type Request is not wired"):
        res.define("Request")
    assert res.define("Service").defined_by == res.id


def test_wiring_to_an_info_module_is_an_invariant_violation(hello):
    mgr = ModuleManager()
    mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    other = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    mgr.module(info).imports["Service"] = other
    with pytest.raises(InvariantViolation):
        mgr.load_type(info, "Service")


def test_remove_unreferenced_module(hello):
    mgr = ModuleManager()
    mid = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    mgr.remove_module(mid)
    assert [e.kind for e in mgr.events] == [EventKind.ADDED, EventKind.REMOVED]
    assert mid not in mgr.live_ids()
    with pytest.raises(UnknownModule):
        mgr.remove_module(mid)


def test_remove_wired_module_is_refused_naming_its_dependents_in_id_order(hello):
    mgr = ModuleManager()
    itf = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info1 = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    info2 = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    # oracle: scan all wirings for the provider
    dependents = [m.id for m in mgr.info_modules() if itf in m.imports.values()]
    assert dependents == [info1, info2]

    with pytest.raises(InUse) as exc:
        mgr.remove_module(itf)
    assert list(exc.value.dependents) == dependents
    assert itf in mgr.live_ids() and mgr.dependents_of(itf) == dependents


def test_defined_types_survive_module_removal(hello):
    mgr = ModuleManager()
    itf = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    loaded = mgr.load_type(info, "Service")
    mgr.remove_module(info)
    mgr.remove_module(itf)
    assert loaded.name == "Service" and loaded.defined_by == itf
    assert loaded.definition.kind is TypeKind.INTERFACE


def test_the_undo_log_removes_what_a_failed_block_created_and_restores_what_it_rewired(hello):
    mgr = ModuleManager()
    itf = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    module = mgr.module(info)
    before = (mgr.live_ids(), module.imports, mgr.dependents_of(itf))
    with pytest.raises(RuntimeError):
        with mgr.undo_on_error():
            other = mgr.create_resource_module([_pair("Service", "1.0")], hello)
            mgr.create_info_module({"Service": (VersionTag("1.0"), other)})
            mgr.rewire_import(info, {"Service": (VersionTag("1.0"), other)})
            with pytest.raises(InvariantViolation):
                with mgr.undo_on_error():  # blocks do not nest
                    pass
            raise RuntimeError
    assert (mgr.live_ids(), module.imports, mgr.dependents_of(itf)) == before
    kinds = [(e.kind, int(e.module_id)) for e in mgr.events]
    assert kinds[2:] == [(EventKind.ADDED, 3), (EventKind.ADDED, 4),
                         (EventKind.REMOVED, 4), (EventKind.REMOVED, 3)]
    with mgr.undo_on_error():  # the failed block left none open
        mgr.create_resource_module([], hello)


def test_a_failed_block_puts_back_an_older_module_it_removed_and_forgets_its_own(hello):
    mgr = ModuleManager()
    resource = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    later = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    module, seen = mgr.module(info), len(mgr.events)
    with pytest.raises(RuntimeError):
        with mgr.undo_on_error():
            own = mgr.create_resource_module([_pair("Service", "1.0")], hello)
            mgr.remove_module(own)
            mgr.remove_module(info)
            raise RuntimeError
    assert mgr.live_ids() == {resource, info, later}
    assert mgr.module(info) is module and module.imports == {"Service": resource}
    assert mgr.dependents_of(resource) == [info, later]
    assert mgr.exporters_of(_pair("Service", "1.0")) == [resource]
    assert [m.id for m in mgr.info_modules()] == [info, later]  # put back last, listed by id
    added, removed = EventKind.ADDED, EventKind.REMOVED  # the block, then each write undone
    assert [(e.kind, e.module_id) for e in mgr.events[seen:]] == [
        (added, own), (removed, own), (removed, info),
        (added, info), (added, own), (removed, own)]
    assert replay_live_set(mgr.events) == mgr.live_ids()


def test_an_interrupt_inside_a_block_undoes_every_write_and_leaves_no_block_open():
    arch, corpus, _ = build_architecture("hello.fractal.xml", "hello")
    mgr, server = arch.mgr, arch.component("server")
    info, impl = mgr.module(server.info_module), server.impl_modules[0]
    before = (arch.report(), mgr.live_ids(), info.imports, mgr.dependents_of(impl))
    exported = {name: mgr.module(p).exports[name] for name, p in info.imports.items()}
    interrupt = KeyboardInterrupt()
    with pytest.raises(KeyboardInterrupt) as raised:
        with mgr.undo_on_error():
            copy = mgr.create_resource_module(exported.items(), corpus)
            table = {name: (version, copy) for name, version in exported.items()}
            created = mgr.create_info_module(table)
            mgr.rewire_import(server.info_module, table)
            mgr.remove_module(impl)  # nothing is wired to it any more
            raise interrupt
    assert raised.value is interrupt
    assert copy not in mgr.live_ids() and created not in mgr.live_ids()
    assert (arch.report(), mgr.live_ids(), info.imports, mgr.dependents_of(impl)) == before
    assert replay_live_set(mgr.events) == mgr.live_ids()
    with mgr.undo_on_error():  # the interrupted block left none open
        mgr.remove_module(mgr.create_resource_module([], corpus))
    assert mgr.live_ids() == before[1]


def test_a_failed_block_puts_back_the_older_provider_it_rewired_away_from_and_removed(hello):
    mgr = ModuleManager()
    r1 = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    i = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    other = mgr.create_resource_module([_pair("Request", "1.0")], hello)
    with pytest.raises(RuntimeError):
        with mgr.undo_on_error():
            r2 = mgr.create_resource_module([_pair("Service", "1.0")], hello)
            mgr.rewire_import(i, {"Service": (VersionTag("1.0"), r2)})
            mgr.remove_module(r1)
            raise RuntimeError
    assert mgr.live_ids() == {r1, i, other} and mgr.module(i).imports == {"Service": r1}
    assert mgr.dependents_of(r1) == [i] and mgr.dependents_of(r2) == []
    assert mgr.exporters_of(_pair("Service", "1.0")) == [r1]
    assert [m.id for m in mgr.resource_modules()] == [r1, other]  # put back last, listed by id
    assert mgr.load_type(i, "Service").defined_by == r1
    assert replay_live_set(mgr.events) == mgr.live_ids()


def test_the_undo_log_removes_a_created_info_module_rewired_to_a_newer_created_one(hello):
    mgr = ModuleManager()
    resource = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    with pytest.raises(RuntimeError):
        with mgr.undo_on_error():
            info = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
            newer = mgr.create_resource_module([_pair("Service", "1.0")], hello)
            mgr.rewire_import(info, {"Service": (VersionTag("1.0"), newer)})
            raise RuntimeError
    assert mgr.live_ids() == {resource} and mgr._dependents == {}


def test_a_module_id_is_an_int_that_prints_as_m_n(hello):
    assert ModuleId.__hash__ is int.__hash__ and ModuleId.__eq__ is int.__eq__
    mid = ModuleId(7)
    assert [str(mid), repr(mid), f"{mid}", f"{mid!r}", f"{[mid]}"] == ["m7"] * 4 + ["[m7]"]
    mgr = ModuleManager()
    ids = [mgr.create_resource_module([], hello) for _ in range(12)]
    assert sorted(reversed(ids)) == ids and sorted(mgr.live_ids()) == ids


def test_event_log_replay_reconstructs_live_set(hello):
    rng = random.Random(3)
    mgr = ModuleManager()
    for _ in range(60):
        live = sorted(mgr.live_ids())
        if live and rng.random() < 0.4:
            mgr.remove_module(rng.choice(live))
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
        info = mgr.create_info_module(table_from_index(mgr, imports))
        return {name: label_of[mid] for name, mid in mgr.module(info).imports.items()}

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
    info = mgr.create_info_module(table_from_index(mgr, [_pair("ServerImpl", "1.0"),
                                                         _pair("Service", "1.0")]))
    new = mgr.create_resource_module([_pair("ServerImpl", "2.0")], swap_corpus)
    mgr.rewire_import(info, {"ServerImpl": (VersionTag("2.0"), new),
                             "Service": (VersionTag("1.0"), itf)})
    wiring = mgr.module(info).imports
    assert wiring["ServerImpl"] == new and wiring["Service"] == itf
    with pytest.raises(UnresolvableExport):  # all or nothing: the valid entry is not applied
        mgr.rewire_import(info, {"ServerImpl": (VersionTag("1.0"), old),
                                 "Service": (VersionTag("3.0"), itf)})
    imports = mgr.module(info).imports
    assert imports == {"ServerImpl": new, "Service": itf}
    assert {n: mgr.module(p).exports[n] for n, p in imports.items()} == {
        "ServerImpl": VersionTag("2.0"), "Service": VersionTag("1.0")}


def test_rewire_import_refuses_a_resource_module_as_via_and_changes_nothing(hello):
    mgr = ModuleManager()
    itf = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    other = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    info = mgr.create_info_module({"Service": (VersionTag("1.0"), itf)})

    def state():
        return ({m.id: dict(m.imports) for m in mgr.info_modules()},
                {mid: mgr.dependents_of(mid) for mid in mgr.live_ids()})

    before = state()
    with pytest.raises(UnknownModule):  # the table itself is valid: only ``via`` is refused
        mgr.rewire_import(other, {"Service": (VersionTag("1.0"), itf)})
    assert state() == before


# --- the one write path for wiring and its reverse index -----------------------------

def test_forced_removal_then_removal_of_the_dependent_leaves_no_stale_index_entry(hello):
    mgr = ModuleManager()
    itf = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    req = mgr.create_resource_module([_pair("Request", "1.0")], hello)
    info = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0"),
                                                         _pair("Request", "1.0")]))
    assert mgr.dependents_of(itf) == mgr.dependents_of(req) == [info]
    mgr.remove_module(info)
    assert mgr.dependents_of(itf) == mgr.dependents_of(req) == []
    mgr.remove_module(itf)  # no longer InUse: the removed info module left the index
    mgr.remove_module(req)
    assert mgr._dependents == {}


def test_dependents_are_in_id_order_whatever_the_order_they_were_wired_in():
    swap_corpus = load_corpus(corpus_path("hello_swap"))
    mgr = ModuleManager()
    old = mgr.create_resource_module([_pair("ServerImpl", "1.0")], swap_corpus)
    new = mgr.create_resource_module([_pair("ServerImpl", "2.0")], swap_corpus)
    first = mgr.create_info_module(table_from_index(mgr, [_pair("ServerImpl", "1.0")]))
    second = mgr.create_info_module(table_from_index(mgr, [_pair("ServerImpl", "2.0")]))
    mgr.rewire_import(first, {"ServerImpl": (VersionTag("2.0"), new)})
    assert mgr.dependents_of(new) == [first, second] and mgr.dependents_of(old) == []
    with pytest.raises(InUse) as exc:
        mgr.remove_module(new)
    assert list(exc.value.dependents) == [first, second]


# --- the one index of which live modules export a pair ----------------------------------

class _CountedDict(dict):
    """A dict that adds one to ``counts[label]`` per ``get`` and per entry that any
    iteration over it yields, so a scan of n entries counts n."""

    def __init__(self, data, counts: Counter, label: str):
        super().__init__(data)
        self._counts, self._label = counts, label

    def _yielded(self, entries):
        for entry in entries:
            self._counts[self._label] += 1
            yield entry

    def __iter__(self):
        return self._yielded(super().__iter__())

    def keys(self):
        return self._yielded(super().keys())

    def values(self):
        return self._yielded(super().values())

    def items(self):
        return self._yielded(super().items())

    def get(self, *args):
        self._counts[self._label] += 1
        return super().get(*args)


def _exporter_scans_of_one_info_module(n: int) -> Counter:
    """Reads of the manager's registry and of its exporter index while one info module
    is created from a one-entry table among n live modules."""
    store = _mem_store(*((f"T{i}", "1.0") for i in range(n)))
    mgr = ModuleManager()
    mids = [mgr.create_resource_module([_pair(f"T{i}", "1.0")], store) for i in range(n)]
    table = table_from_index(mgr, [_pair(f"T{n // 2}", "1.0")])
    counts = Counter()
    mgr._modules = _CountedDict(mgr._modules, counts, "registry")
    mgr._exporters = _CountedDict(mgr._exporters, counts, "exporter index")
    info = mgr.create_info_module(table)
    made = Counter(counts)
    assert mgr.module(info).imports == {f"T{n // 2}": mids[n // 2]}
    return made


def test_an_info_module_resolves_its_imports_with_the_same_work_at_10_and_1000_modules():
    assert _exporter_scans_of_one_info_module(10) == {"exporter index": 1}
    assert _exporter_scans_of_one_info_module(1000) == {"exporter index": 1}


def _assert_the_exporter_index_holds_only_live_ids(mgr) -> None:
    live = mgr.live_ids()
    assert all(ids and ids <= live for ids in mgr._exporters.values())


def test_a_forced_removal_and_a_rolled_back_swap_leave_no_dead_id_in_the_exporter_index():
    arch, corpus, _ = build_architecture("hello_v1.fractal.xml", "hello_swap")
    mgr = arch.mgr

    def refuse(comp):
        raise InvariantViolation("post-swap check refused")

    arch.link_checks = refuse
    with pytest.raises(InvariantViolation):
        runtime.swap_implementation(arch, "server", ("ServerImpl", "2.0"), corpus)
    _assert_the_exporter_index_holds_only_live_ids(mgr)
    assert mgr.exporters_of(_pair("ServerImpl", "2.0")) == []

    del arch.link_checks
    runtime.swap_implementation(arch, "server", ("ServerImpl", "2.0"), corpus)
    impl = arch.component("server").impl_modules[0]  # the pre-swap module, wired to by none
    pairs = list(mgr.module(impl).exports.items())
    mgr.remove_module(impl)
    _assert_the_exporter_index_holds_only_live_ids(mgr)
    assert all(impl not in mgr.exporters_of(pair) for pair in pairs)


class _Writes(ast.NodeVisitor):
    """Collects the qualified name of every function that writes some ``x.<attr>``
    for an attr in ``attrs``: assigns or deletes it or an item of it, or mutates it."""

    MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__",
                "append", "extend", "insert", "remove"}

    def __init__(self, attrs: set[str]):
        self.attrs = attrs
        self.scope: list[str] = []
        self.found: set[str] = set()

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _scoped

    def _note(self, target):
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in self.attrs:
            self.found.add(".".join(self.scope))

    def generic_visit(self, node):
        if isinstance(node, (ast.Assign, ast.Delete)):
            for target in node.targets:
                self._note(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            self._note(node.target)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in self.MUTATORS:
                self._note(node.func.value)
        super().generic_visit(node)


class _Reads(_Writes):
    """Collects the qualified name of every function that reads some ``x.<attr>``."""

    def generic_visit(self, node):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            self._note(node)
        ast.NodeVisitor.generic_visit(self, node)


def _scan_src(*attrs: str, visitor_class=_Writes) -> _Writes:
    visitor = visitor_class(set(attrs))
    for path in sorted(SRC.glob("*.py")):
        visitor.scope = [path.stem]
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return visitor


def test_info_module_wiring_is_written_only_through_the_managers_one_helper():
    assert _scan_src("imports").found == {"modules.InfoModule.__init__",
                                          "modules.ModuleManager._set_wiring"}


def test_only_rewire_import_and_the_undo_rewrite_an_info_modules_imports():
    # creating an info module wires it before it is live, and removing one keeps its imports;
    # _set_wiring names itself only to log its own inverse
    assert _scan_src("_set_wiring", visitor_class=_Reads).found == {
        "modules.ModuleManager._set_wiring", "modules.ModuleManager.rewire_import"}


def test_links_are_written_only_by_the_model():
    found = _scan_src("binding", "route", "inbound").found
    assert {scope.split(".")[0] for scope in found} == {"model"}, sorted(found)


def test_only_the_link_walk_reads_the_bindings_that_enter_a_port():
    assert _scan_src("inbound", visitor_class=_Reads).found == \
        {"model.bind", "model.unbind", "model.links"}  # bind and unbind to append and remove


def test_rewire_import_refuses_a_dead_provider_and_a_non_exporter_in_table_order(hello):
    """A provider that is not live raises ``UnknownModule``; a live module that does not
    export the pair, an info module included, ``UnresolvableExport``; the first bad entry
    of the table decides, and nothing is written. ``create_info_module`` refuses the same
    tables the same way, outside any undo block, before the module takes an id."""
    mgr = ModuleManager()
    itf = mgr.create_resource_module([_pair("Service", "1.0")], hello)
    req = mgr.create_resource_module([_pair("Request", "1.0")], hello)
    gone = mgr.create_resource_module([_pair("Request", "1.0")], hello)
    mgr.remove_module(gone)
    info = mgr.create_info_module(table_from_index(mgr, [_pair("Service", "1.0")]))
    service, request = (VersionTag("1.0"), itf), (VersionTag("1.0"), req)
    cases = [
        ({"Service": service, "Request": (VersionTag("1.0"), gone)}, UnknownModule),
        ({"Service": (VersionTag("1.0"), req), "Request": request}, UnresolvableExport),
        ({"Service": (VersionTag("1.0"), info), "Request": request}, UnresolvableExport),
        ({"Service": (VersionTag("2.0"), itf), "Request": request}, UnresolvableExport),
        ({"Request": (VersionTag("1.0"), gone), "Service": (VersionTag("1.0"), req)},
         UnknownModule),
        ({"Service": (VersionTag("1.0"), req), "Request": (VersionTag("1.0"), gone)},
         UnresolvableExport),
    ]
    for table, error in cases:
        with pytest.raises(error):
            mgr.rewire_import(info, table)
        assert mgr.module(info).imports == {"Service": itf}
        assert mgr.dependents_of(itf) == [info] and mgr.dependents_of(req) == []

    def state():
        return (mgr.live_ids(), len(mgr.events),
                [mgr.exporters_of(_pair(name, "1.0")) for name in ("Service", "Request")],
                {mid: mgr.dependents_of(mid) for mid in (itf, req, gone, info)})

    before = state()
    for table, error in cases:
        with pytest.raises(error):
            mgr.create_info_module(table)
        assert state() == before
    assert mgr.create_info_module({}) == info + 1  # no refusal took an id
