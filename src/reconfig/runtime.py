"""Simulated invocation, receiver-side identity checks, and hot swap.

Calls traverse the architecture along bindings. Crossing into a component
pushes that component's info module onto the execution context (and pops it on
the way out, error or not), so the trace records exactly which module governed
each stretch of the call. On entry, every argument is checked on the receiver
side: the declared parameter type name is resolved through the callee's own
wiring and must be the *same defined type* as the argument's runtime type. A
parameter declared as the universal ``object`` defers the check to the
argument's concrete type name, which is how an undeclared exchanged class
surfaces as a mismatch at the boundary.

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
module while interface and shared modules stay untouched. The old module
stays the component's until it is removed; its types live on while referenced.
"""

from __future__ import annotations

import time
from collections import ChainMap
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from .adl import AdlComponent
from .corpus import OBJECT_TYPE, CorpusStore, TypeKind, TypeRef, VersionTag
from .errors import (
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
    ResourcePlan,
    attach_primitive,
    file_pairs,
    plan_component,
    plan_public,
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
    check_binding,
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
    """A runtime value: its defined type plus an opaque payload."""

    rt_type: DefinedType
    payload: str

    def __str__(self) -> str:
        return f"{self.rt_type}({self.payload})"


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    kind: str
    args: tuple[str, ...]

    def render(self) -> str:
        return f"{self.seq} {self.kind} {' '.join(self.args)}".rstrip()


@dataclass(frozen=True)
class SwapRecord:
    component: str
    old_content: DefinedType
    new_content: DefinedType
    new_module: ModuleId


@dataclass(frozen=True)
class BenchReport:
    calls: int
    with_interceptor_time: float
    bookkeeping_ops: int

    def render(self) -> str:
        return (f"calls={self.calls} bookkeeping_ops={self.bookkeeping_ops} "
                f"time_s={self.with_interceptor_time:.6f}")


class ExecutionContext:
    """Per-invocation stack of context modules; pushes and pops balance."""

    def __init__(self):
        self._stack: list[ModuleId] = []

    def push(self, module_id: ModuleId) -> None:
        self._stack.append(module_id)

    def pop(self) -> ModuleId:
        return self._stack.pop()

    @property
    def depth(self) -> int:
        return len(self._stack)

    @property
    def current(self) -> Optional[ModuleId]:
        return self._stack[-1] if self._stack else None


def _event(arch: ArchitectureInstance, kind: str, *args: str) -> None:
    arch.trace.append(TraceEvent(arch.next_seq(), kind, args))


def serialize_trace(arch: ArchitectureInstance) -> str:
    return "\n".join(event.render() for event in arch.trace) + ("\n" if arch.trace else "")


def _client_target(cport: InterfacePort) -> InterfacePort:
    """Follow a client port to the server port it ultimately reaches."""
    visited: set[int] = set()
    port = cport
    while True:
        if id(port) in visited:
            raise UnboundInterface(port.owner.name, port.name)
        visited.add(id(port))
        if port.binding is not None:
            return port.binding.server
        if port.outbound_route is not None:
            port = port.outbound_route
            continue
        raise UnboundInterface(port.owner.name, port.name)


def _receiver_check(arch: ArchitectureInstance, comp: ComponentInstance,
                    declared: str, arg: Value) -> None:
    lookup = arg.rt_type.name if declared == OBJECT_TYPE else declared
    local = arch.mgr.load_type(comp.info_module, lookup)
    ok = same_type(local, arg.rt_type)
    _event(arch, CHECK, lookup, "ok" if ok else "mismatch")
    if not ok:
        raise TypeMismatch(lookup, arg.rt_type.defined_by, local.defined_by)


def _call_server(arch: ArchitectureInstance, ctx: ExecutionContext,
                 port: InterfacePort, method_name: str, args: Sequence[Value]) -> Optional[Value]:
    if ctx.depth >= MAX_CALL_DEPTH:
        raise CallDepthExceeded(MAX_CALL_DEPTH)
    comp = port.owner
    ctx.push(comp.info_module)
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
            inner = comp.export_routes.get(port.name)
            if inner is None:
                raise UnboundInterface(comp.name, port.name)
            return _call_server(arch, ctx, inner, method_name, args)

        for cport in comp.client_ports():
            target = _client_target(cport)
            fwd_sig = arch.mgr.load_type(comp.info_module, cport.signature)
            if not fwd_sig.definition.methods:
                continue
            fwd = fwd_sig.definition.methods[0]
            fwd_args = [Value(arch.mgr.load_type(comp.info_module, p), f"{comp.name}:{p}")
                        for p in fwd.params]
            _call_server(arch, ctx, target, fwd.name, fwd_args)

        if method.returns == "void":
            return None
        return Value(arch.mgr.load_type(comp.info_module, method.returns),
                     f"{comp.name}.{method_name}")
    finally:
        ctx.pop()
        _event(arch, EXIT, comp.name)


def invoke(arch: ArchitectureInstance, component: str, port: str, method: str,
           args: Sequence[Value] = ()) -> Optional[Value]:
    """Invoke a method on a component port.

    A server port is entered directly (a composite export routes inward); a
    client port routes straight through its binding, which models a call
    originating inside the owning component. The context stack is balanced
    even on error paths.
    """
    if arch.in_call:
        raise ReconfigDuringCall()
    arch.in_call = True
    ctx = ExecutionContext()
    try:
        target = arch.find_port(f"{component}.{port}")
        if target.role is Role.CLIENT:
            target = _client_target(target)
        return _call_server(arch, ctx, target, method, list(args))
    finally:
        arch.in_call = False
        if ctx.depth != 0:
            raise InvariantViolation(f"execution context left {ctx.depth} module(s) pushed")


def make_value(arch: ArchitectureInstance, owner: ComponentInstance, type_name: str) -> Value:
    """Construct a value of ``type_name`` in the owner component's context."""
    return Value(arch.mgr.load_type(owner.info_module, type_name), type_name)


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
    every binding stays type-safe, which is checked before the swap commits;
    the old content type and its module persist, letting the two versions
    coexist until the old module is removed explicitly.
    """
    _guard_reconfig(arch, "swap")
    comp = arch.component(component)
    if comp.kind is not ComponentKind.PRIMITIVE:
        raise NotAPrimitive(component)
    name, version = new_content
    try:
        tag = version if isinstance(version, VersionTag) else VersionTag(str(version))
        new_td = corpus.lookup(TypeRef(name, tag))
    except (ValueError, NotFound):  # a malformed name or version names no export either
        raise UnresolvableExport(name, version) from None
    if new_td.kind is not TypeKind.CLASS:
        raise ContentNotAClass(name)
    check_conformance(arch.mgr, comp, new_td)

    source = replace(comp.source, content=(name, tag))
    impl, planned = plan_component(source, corpus, arch.public)
    info = arch.mgr.module(comp.info_module)
    unwired = sorted(info.imports.keys() - info.wiring.keys())
    if unwired:  # a forced removal took a provider away, so no undo could restore the table
        raise InvariantViolation(f"{info.id} imports {unwired[0]} from no module")
    old_table = {n: (v, info.wiring[n]) for n, v in info.imports.items()}
    new_mid = None
    if impl is not None:
        new_mid = arch.mgr.create_resource_module(impl.exports, corpus)
    new_table = {n: (v, new_mid if p is impl else p) for n, (v, p) in planned.items()}
    old = comp.content
    try:
        arch.mgr.rewire_import(info.id, new_table)
        comp.content = arch.mgr.load_type(info.id, name)
        broken = [desc for desc, chk in arch.binding_checks() if not chk.ok]
        if broken:
            raise InvariantViolation(f"swap would break bindings: {broken}")
    except Exception:
        arch.mgr.rewire_import(info.id, old_table)
        comp.content = old
        if new_mid is not None:
            arch.mgr.remove_module(new_mid, force=True)
        raise

    if new_mid is not None:
        comp.impl_modules.append(new_mid)
    comp.source = source
    _event(arch, SWAP, component, str(old), str(comp.content))
    return SwapRecord(component, old, comp.content, comp.content.defined_by)


def rebind(arch: ArchitectureInstance, client_spec: str, server_spec: str) -> BindingRecord:
    """Re-point a client port at a new server port, atomically.

    The new target is checked first; on mismatch the old binding is untouched.
    """
    if arch.in_call:
        raise ReconfigDuringCall()
    cport = arch.find_port(client_spec)
    sport = arch.find_port(server_spec)
    result = check_binding(arch.mgr, cport, sport)
    if not result.ok:
        raise result.mismatch
    if cport.binding is not None:
        unbind(cport.binding)
    return bind(arch.mgr, cport, sport)


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
    ``AmbiguousImport`` before anything is created; any later failure rolls
    every created module back.
    """
    _guard_reconfig(arch, "structural reconfiguration")
    if component.name in arch.components:
        raise DuplicateComponent(component.name)

    new_public = plan_public(file_pairs(corpus, component),
                             signature_pairs(corpus, component.interfaces), corpus, arch.public)
    new_index = {pair: rp for rp in new_public for pair in rp.exports}
    arch.refuse_private(set(new_index))
    impl, planned = plan_component(component, corpus, ChainMap(new_index, arch.public))
    plans = new_public + ([impl] if impl is not None else [])

    created: list[ModuleId] = []
    try:
        for rp in plans:
            created.append(arch.mgr.create_resource_module(rp.exports, corpus))
        ids = {rp.label: mid for rp, mid in zip(plans, created)}
        imports = {n: (v, ids[p.label] if isinstance(p, ResourcePlan) else p)
                   for n, (v, p) in planned.items()}
        info_id = arch.mgr.create_info_module(
            [(n, v) for n, (v, _) in imports.items()],
            providers={pid for _, pid in imports.values()})
        created.append(info_id)
        inst = attach_primitive(arch.mgr, corpus, component, info_id,
                                [ids[impl.label]] if impl is not None else [])
    except Exception:
        for mid in reversed(created):
            arch.mgr.remove_module(mid, force=True)
        raise

    add_child(arch.root, inst)
    arch.components[component.name] = inst
    for rp, mid in zip(new_public, created):
        arch.public.update(dict.fromkeys(rp.exports, mid))
    return inst


def remove_component(arch: ArchitectureInstance, name: str) -> None:
    """Remove a primitive from the root, refusing while bindings cross it.

    The component's info module and the implementation modules it owns go
    away; interface and shared modules stay, they may serve other components.
    """
    _guard_reconfig(arch, "structural reconfiguration")
    comp = arch.component(name)
    if comp is arch.root or comp.kind is not ComponentKind.PRIMITIVE:
        raise NotAPrimitive(name)
    remove_child(arch.root, comp)
    arch.mgr.remove_module(comp.info_module, force=False)
    for mid in comp.impl_modules:
        arch.mgr.remove_module(mid, force=False)
    del arch.components[name]


def bench_interception(arch: ArchitectureInstance, n: int,
                       entry: Optional[tuple[str, str, str]] = None) -> BenchReport:
    """Run ``n`` no-op invocations and report interceptor bookkeeping.

    ``bookkeeping_ops`` counts context pushes, pops, and receiver checks; it
    is a pure function of the traversal structure, so two runs over the same
    architecture always report the same count. Wall time is informational
    only; no overhead percentage is asserted.
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
    ops = sum(1 for event in arch.trace[start:] if event.kind in (ENTER, EXIT, CHECK))
    return BenchReport(n, elapsed, ops)
