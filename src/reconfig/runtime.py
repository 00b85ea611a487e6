"""Simulated invocation, receiver-side identity checks, and hot swap.

Calls traverse the architecture along bindings and routes, read off the port
they leave: a composite's server port routes a call in to its child, and a
client port follows its routes out to the binding that ends them. A call
enters each component it crosses into, in that component's context (its info
module), and leaves it on the way out, error or not; the trace records each
ENTER, with the info module, and each EXIT. There is no context stack: a call
carries only its depth, which ``MAX_CALL_DEPTH`` caps. On entry, every
argument is checked on the receiver side: the declared parameter type name is
resolved through the callee's own wiring and must be the *same defined type*
as the argument's runtime type. A parameter declared as the universal
``object`` defers the check to the argument's concrete type name, which is how
an undeclared exchanged class surfaces as a mismatch at the boundary.

Content behavior is echo-style: a component that receives a call forwards one
call through each of its bound client ports (the first method of the port's
signature, with arguments constructed in its own context) and returns a fresh
value of the declared return type, constructed in its own context. That is
enough to exercise every identity and context phenomenon while staying
deterministic.

Add and swap run the factory's planner against the architecture's public
modules; each primitive owns its planner input and implementation modules.
Add refuses, with ``AmbiguousImport``, to make public a type that other
components hold in private modules. Swap re-plans only the swapped component:
its info module moves to exactly the imports a fresh plan of the new content
gives, so the whole private closure follows the new content into one fresh
module while interface and shared modules stay untouched. Only that info
module changes, so the post-swap check covers the links at the swapped
component's ports and no others; a swap costs what the component touches,
not the size of the architecture. The old module stays the component's until
it is removed; its types live on while referenced.

Add, swap and remove each run in one ``undo_on_error`` block of the manager,
whose journal puts back every module the operation created, rewired or
removed. Attaching a component to the root is add's last write. Remove
detaches the component first: that refuses crossing bindings before anything
is written, so a refused remove writes nothing, and it logs putting the
child back at its index, so a refusal at a later step leaves the tree as it
was too. A swap writes exactly two things through the manager, its new
implementation module and the one rewire, and a remove exactly the removal
of each module its component owns. Add asks the manager whether each new
public pair is exported anywhere and sorts exporters only to name them in
its refusal.
"""

from __future__ import annotations

import time
from collections import ChainMap
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .adl import AdlComponent
from .corpus import OBJECT_TYPE, CorpusStore, TypeKind, VersionTag
from .errors import (
    AmbiguousImport,
    ArityError,
    CallDepthExceeded,
    ContentNotAClass,
    DuplicateComponent,
    GranularityForbidsSwap,
    InvariantViolation,
    NotAPrimitive,
    NotFound,
    ReconfigDuringCall,
    TypeMismatch,
    UnboundInterface,
    UnknownMethod,
    UnresolvableExport,
)
from .factory import (
    ArchitectureInstance,
    Granularity,
    attach_primitive,
    file_pairs,
    plan_component,
    plan_public,
    planned_ids,
    signature_pairs,
)
from .model import (
    BindingRecord,
    ComponentInstance,
    ComponentKind,
    InterfacePort,
    Role,
    add_child,
    bind,
    check_conformance,
    remove_child,
    unbind,
)
from .modules import DefinedType, ModuleId, same_type

MAX_CALL_DEPTH = 64

ENTER = "ENTER"
EXIT = "EXIT"
CHECK = "CHECK"
SWAP = "SWAP"


@dataclass(frozen=True)
class Value:
    """A runtime value: its defined type."""

    rt_type: DefinedType


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    kind: str
    args: tuple[str, ...]

    def render(self) -> str:
        return f"{self.seq} {self.kind} {' '.join(self.args)}".rstrip()


@dataclass(frozen=True, slots=True)
class SwapRecord:
    component: str
    old_content: DefinedType
    new_content: DefinedType
    new_module: ModuleId


@dataclass(frozen=True, slots=True)
class BenchReport:
    calls: int
    with_interceptor_time: float
    bookkeeping_ops: int

    def render(self) -> str:
        return (f"calls={self.calls} bookkeeping_ops={self.bookkeeping_ops} "
                f"time_s={self.with_interceptor_time:.6f}")


def _event(arch: ArchitectureInstance, kind: str, *args: str) -> None:
    arch.trace.append(TraceEvent(arch.next_seq(), kind, args))


def serialize_trace(arch: ArchitectureInstance) -> str:
    return "\n".join(event.render() for event in arch.trace) + ("\n" if arch.trace else "")


def _client_target(port: InterfacePort) -> InterfacePort:
    """The server port that a client port's binding, or its routes out to one, reach.

    Each route goes from a child up to its composite, so the walk ends."""
    while port.binding is None:
        if port.route is None:
            raise UnboundInterface(port.owner.name, port.name)
        port = port.route
    return port.binding.server


def _receiver_check(arch: ArchitectureInstance, comp: ComponentInstance,
                    declared: str, arg: Value) -> None:
    lookup = arg.rt_type.name if declared == OBJECT_TYPE else declared
    local = arch.mgr.load_type(comp.info_module, lookup)
    ok = same_type(local, arg.rt_type)
    _event(arch, CHECK, lookup, "ok" if ok else "mismatch")
    if not ok:
        raise TypeMismatch(lookup, arg.rt_type.defined_by, local.defined_by)


def _call_server(arch: ArchitectureInstance, depth: int,
                 port: InterfacePort, method_name: str, args: Sequence[Value]) -> Optional[Value]:
    if depth >= MAX_CALL_DEPTH:
        raise CallDepthExceeded(MAX_CALL_DEPTH)
    comp = port.owner
    _event(arch, ENTER, comp.name, str(comp.info_module))
    try:
        signature = arch.mgr.load_type(comp.info_module, port.signature)
        method = signature.definition.method(method_name)
        if method is None:
            raise UnknownMethod(port.signature, method_name)
        if len(method.params) != len(args):
            raise ArityError(method_name, len(method.params), len(args))
        for param, arg in zip(method.params, args):
            _receiver_check(arch, comp, param, arg)

        if comp.kind is ComponentKind.COMPOSITE:
            if port.route is None:
                raise UnboundInterface(comp.name, port.name)
            return _call_server(arch, depth + 1, port.route, method_name, args)

        for cport in comp.client_ports():
            target = _client_target(cport)
            fwd_sig = arch.mgr.load_type(comp.info_module, cport.signature)
            if not fwd_sig.definition.methods:
                continue
            fwd = fwd_sig.definition.methods[0]
            fwd_args = [Value(arch.mgr.load_type(comp.info_module, p)) for p in fwd.params]
            _call_server(arch, depth + 1, target, fwd.name, fwd_args)

        if method.returns == "void":
            return None
        return Value(arch.mgr.load_type(comp.info_module, method.returns))
    finally:
        _event(arch, EXIT, comp.name)


def invoke(arch: ArchitectureInstance, component: str, port: str, method: str,
           args: Sequence[Value] = ()) -> Optional[Value]:
    """Invoke a method on a component port.

    A server port is entered directly (a composite's routes it inward); a
    client port goes straight through its binding, or its routes out to one,
    which models a call originating inside the owning component. Every ENTER
    is matched by an EXIT, even on error paths.
    """
    if arch.in_call:
        raise ReconfigDuringCall()
    arch.in_call = True
    try:
        target = arch.find_port(f"{component}.{port}")
        if target.role is Role.CLIENT:
            target = _client_target(target)
        return _call_server(arch, 0, target, method, list(args))
    finally:
        arch.in_call = False


def make_value(arch: ArchitectureInstance, owner: ComponentInstance, type_name: str) -> Value:
    """Construct a value of ``type_name`` in the owner component's context."""
    return Value(arch.mgr.load_type(owner.info_module, type_name))


def _guard_reconfig(arch: ArchitectureInstance, operation: str) -> None:
    if arch.in_call:
        raise ReconfigDuringCall()
    if arch.granularity is not Granularity.PER_COMPONENT:
        raise GranularityForbidsSwap(operation)


def swap_implementation(arch: ArchitectureInstance, component: str,
                        new_content: tuple[str, Union[str, VersionTag]],
                        corpus: CorpusStore) -> SwapRecord:
    """Replace a primitive's content with another version, live.

    The info module moves in one validated step to the imports a fresh plan
    of the new content gives. Interface and shared modules are untouched, so
    every binding stays type-safe. Before the swap commits, the links at the
    swapped component's ports are checked (``arch.link_checks``): only this
    info module changed, so every other link still loads through the same
    modules. The old content type and its module persist, letting the two
    versions coexist until the old module is removed explicitly.
    """
    _guard_reconfig(arch, "swap")
    comp = arch.component(component)
    if comp.kind is not ComponentKind.PRIMITIVE:
        raise NotAPrimitive(component)
    name, version = new_content
    try:
        tag = version if isinstance(version, VersionTag) else VersionTag(str(version))
        new_td = corpus.resolve(name, tag)
    except (ValueError, NotFound):  # a malformed name or version names no export either
        raise UnresolvableExport(name, version) from None
    if new_td.kind is not TypeKind.CLASS:
        raise ContentNotAClass(name)
    check_conformance(arch.mgr, comp, new_td)

    was = comp.source
    source = AdlComponent(was.name, was.interfaces, (name, tag), was.files, was.line, was.col)
    impl, planned = plan_component(source, corpus, arch.public)
    with arch.mgr.undo_on_error():
        ids = {impl.label: arch.mgr.create_resource_module(impl.exports, corpus)} if impl else {}
        arch.mgr.rewire_import(comp.info_module, planned_ids(planned, ids))
        content = arch.mgr.load_type(comp.info_module, name)
        broken = [desc for desc, mismatch in arch.link_checks(comp) if mismatch is not None]
        if broken:
            raise InvariantViolation(f"swap would break bindings: {broken}")

    comp.impl_modules.extend(ids.values())
    old, comp.content, comp.source = comp.content, content, source
    _event(arch, SWAP, component, str(old), str(content))
    return SwapRecord(component, old, content, content.defined_by)


def rebind(arch: ArchitectureInstance, client_spec: str, server_spec: str) -> BindingRecord:
    """Re-point a client port at a new server port, atomically.

    The new target is checked once, before anything is written; on any refusal
    the old binding is untouched.
    """
    if arch.in_call:
        raise ReconfigDuringCall()
    return bind(arch.mgr, arch.find_port(client_spec), arch.find_port(server_spec), replace=True)


def bind_ports(arch: ArchitectureInstance, client_spec: str, server_spec: str) -> BindingRecord:
    if arch.in_call:
        raise ReconfigDuringCall()
    return bind(arch.mgr, arch.find_port(client_spec), arch.find_port(server_spec))


def unbind_port(arch: ArchitectureInstance, client_spec: str) -> None:
    if arch.in_call:
        raise ReconfigDuringCall()
    cport = arch.find_port(client_spec)
    if cport.binding is None:
        raise UnboundInterface(cport.owner.name, cport.name)
    unbind(cport.binding)


def add_component(arch: ArchitectureInstance, component: AdlComponent,
                  corpus: CorpusStore) -> ComponentInstance:
    """Add a primitive described by an ADL fragment to the root composite.

    Public modules are planned for the fragment's files and signatures that
    no public module exports yet, then the component against them. A new
    public type already held in implementation modules raises
    ``AmbiguousImport`` before anything is created. The info module is
    created from the planned table, as ``instantiate`` creates each of its
    own, so a provider that does not export its pair raises
    ``UnresolvableExport``.
    Creation, then attaching the component to the root, runs under the
    manager's undo log, so any failure leaves the modules as they were.
    """
    _guard_reconfig(arch, "structural reconfiguration")
    if component.name in arch.components:
        raise DuplicateComponent(component.name)

    new_public = plan_public(file_pairs(corpus, component),
                             signature_pairs(corpus, component.interfaces), corpus, arch.public)
    new_index = {pair: rp for rp in new_public for pair in rp.exports}
    # The new pairs are not public yet, so whoever exports one holds a private copy;
    # making it public would leave those holders apart, which no one-step plan gives.
    held = [pair for pair in new_index if arch.mgr.is_exported(pair)]
    if held:
        raise AmbiguousImport(*min(held), arch.mgr.exporters_of(min(held)))
    impl, planned = plan_component(component, corpus, ChainMap(new_index, arch.public))
    impls = [impl] if impl is not None else []
    with arch.mgr.undo_on_error():
        ids = {rp.label: arch.mgr.create_resource_module(rp.exports, corpus)
               for rp in new_public + impls}
        info_id = arch.mgr.create_info_module(planned_ids(planned, ids))
        inst = attach_primitive(arch.mgr, component, info_id, [ids[rp.label] for rp in impls])
        add_child(arch.root, inst)

    arch.components[component.name] = inst
    arch.public.update({pair: ids[rp.label] for pair, rp in new_index.items()})
    return inst


def remove_component(arch: ArchitectureInstance, name: str) -> None:
    """Remove a primitive from the root, refusing while bindings cross it.

    The component is detached from the root first, which refuses with
    ``CrossBindingExists`` before anything is written; then its info module
    and the implementation modules it owns go away. Interface and shared
    modules stay, they may serve other components. Both steps run in one
    undo block, so a later refusal, such as ``UnknownModule`` for a module
    already removed directly, puts the child back at its index and every
    module back.
    """
    _guard_reconfig(arch, "structural reconfiguration")
    comp = arch.component(name)
    if comp.kind is not ComponentKind.PRIMITIVE:
        raise NotAPrimitive(name)
    with arch.mgr.undo_on_error():
        remove_child(arch.mgr, arch.root, comp)
        for mid in [comp.info_module, *comp.impl_modules]:
            arch.mgr.remove_module(mid)
    del arch.components[name]


def bench_interception(arch: ArchitectureInstance, n: int,
                       entry: Optional[tuple[str, str, str]] = None) -> BenchReport:
    """Run ``n`` no-op invocations and report interceptor bookkeeping.

    ``bookkeeping_ops`` is the trace's growth: the ENTER, EXIT and CHECK events,
    the only ones ``invoke`` writes. It is a pure function of the traversal
    structure, so two runs over the same architecture report the same count.
    Wall time is informational only; no overhead percentage is asserted.
    """
    if n < 1:
        raise ValueError("bench needs n >= 1")
    if entry is None:
        servers = arch.root.server_ports()
        if not servers:
            raise ValueError("architecture exports no server port to bench")
        port = servers[0]
        signature = arch.mgr.load_type(arch.root.info_module, port.signature)
        if not signature.definition.methods:
            raise ValueError(f"signature {port.signature} has no methods")
        entry = (arch.root.name, port.name, signature.definition.methods[0].name)
    component, port_name, method = entry
    start = len(arch.trace)
    t0 = time.perf_counter()
    for _ in range(n):
        invoke(arch, component, port_name, method)
    elapsed = time.perf_counter() - t0
    return BenchReport(n, elapsed, len(arch.trace) - start)
