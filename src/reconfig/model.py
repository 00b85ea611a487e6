"""Component model: primitives, composites, ports, and primitive bindings.

Components expose named client/server ports typed by an interface signature.
A primitive carries a content type (a class defined through its own info
module); a composite encapsulates children and may share a child with other
composites, so containment is a DAG, never a tree. Binding a client port to a
server port is only legal when both ends resolve the signature to the *same*
defined type, i.e. the same (name, defining module) pair.

Links live on the ports alone (a client port's binding or outbound route, a
composite's export routes), and only ``bind``, ``unbind`` and ``route`` write
them; a client port holds at most one of the two.
``links`` is the one walk over them: every view of an architecture's links
and ``remove_child``'s crossing test read it. Asked for the links touching
one component, it skips the others before formatting their labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .corpus import TypeDef, TypeKind, VersionTag
from .errors import (
    AlreadyBound,
    ContainmentCycle,
    ContentNotAClass,
    CrossBindingExists,
    DuplicatePort,
    EmptyComposite,
    InvariantViolation,
    MissingMethod,
    NotAChild,
    RoleError,
    SignatureNotInterface,
    TypeMismatch,
    UnknownBinding,
    UnsupportedBindingKind,
)
from .modules import DefinedType, ModuleId, ModuleManager, same_type


class Role(Enum):
    CLIENT = "client"
    SERVER = "server"


class ComponentKind(Enum):
    PRIMITIVE = "primitive"
    COMPOSITE = "composite"


class BindingKind(Enum):
    PRIMITIVE = "primitive"
    COMPOSITE = "composite"


@dataclass(frozen=True)
class PortSpec:
    """Input description of a port before it is attached to an owner."""

    name: str
    role: Role
    signature: str
    version: VersionTag


class InterfacePort:
    """A named access point of one component."""

    def __init__(self, spec: PortSpec, owner: "ComponentInstance"):
        self.name = spec.name
        self.role = spec.role
        self.signature = spec.signature
        self.version = spec.version
        self.owner = owner
        self.binding: Optional[BindingRecord] = None   # client side, at most one
        self.inbound: list[BindingRecord] = []         # server side
        self.outbound_route: Optional[InterfacePort] = None  # child client -> composite client

    def __str__(self) -> str:
        return f"{self.owner.name}.{self.name}"


class BindingRecord:
    """A primitive binding of a client to a server port, live while the client holds it."""

    def __init__(self, client: InterfacePort, server: InterfacePort):
        self.client = client
        self.server = server

    def __str__(self) -> str:
        return f"{self.client} -> {self.server}"


class ComponentInstance:
    def __init__(self, name: str, kind: ComponentKind, ports: Sequence[PortSpec],
                 content: Optional[DefinedType], info_module: Optional[ModuleId]):
        self.name = name
        self.kind = kind
        port_names = [spec.name for spec in ports]
        if len(port_names) != len(set(port_names)):
            raise DuplicatePort(name, next(n for i, n in enumerate(port_names)
                                           if n in port_names[:i]))
        self.interfaces = [InterfacePort(spec, self) for spec in ports]
        self.content = content
        self.children: list[ComponentInstance] = []
        self.parents: list[ComponentInstance] = []
        self.info_module = info_module
        self.export_routes: dict[str, InterfacePort] = {}  # composite server port -> child server port
        self.source = None  # a primitive's AdlComponent, the planner's input
        # The implementation modules it owns, in creation order, pre-swap versions included.
        self.impl_modules: list[ModuleId] = []

    def port(self, name: str) -> Optional[InterfacePort]:
        for p in self.interfaces:
            if p.name == name:
                return p
        return None

    def server_ports(self) -> list[InterfacePort]:
        return [p for p in self.interfaces if p.role is Role.SERVER]

    def client_ports(self) -> list[InterfacePort]:
        return [p for p in self.interfaces if p.role is Role.CLIENT]

    def descendants(self) -> set["ComponentInstance"]:
        seen: set[ComponentInstance] = set()
        work = list(self.children)
        while work:
            node = work.pop()
            if node in seen:
                continue
            seen.add(node)
            work.extend(node.children)
        return seen

    def __repr__(self) -> str:
        return f"<{self.kind.value} {self.name}>"


def _check_signature_kinds(mgr: ModuleManager, inst: ComponentInstance) -> None:
    for port in inst.interfaces:
        loaded = mgr.load_type(inst.info_module, port.signature)
        if loaded.definition.kind is not TypeKind.INTERFACE:
            raise SignatureNotInterface(port.signature)


def check_conformance(mgr: ModuleManager, inst: ComponentInstance, content: TypeDef) -> None:
    """Raise MissingMethod unless ``content`` implements every server port's methods.

    A method matches on name and parameter type names; the interfaces are the
    definitions loaded through the component's own info module.
    """
    implemented = {(m.name, m.params) for m in content.methods}
    for port in inst.server_ports():
        sig = mgr.load_type(inst.info_module, port.signature)
        for method in sig.definition.methods:
            if (method.name, method.params) not in implemented:
                raise MissingMethod(port.signature, method.name)


def new_primitive(mgr: ModuleManager, name: str, ports: Sequence[PortSpec],
                  content: DefinedType, info_module: ModuleId) -> ComponentInstance:
    """Create a primitive component around a content class that conforms to its ports."""
    if content.definition.kind is not TypeKind.CLASS:
        raise ContentNotAClass(content.name)
    inst = ComponentInstance(name, ComponentKind.PRIMITIVE, ports, content, info_module)
    _check_signature_kinds(mgr, inst)
    check_conformance(mgr, inst, content.definition)
    return inst


def new_composite(mgr: ModuleManager, name: str, ports: Sequence[PortSpec],
                  children: Iterable[ComponentInstance],
                  info_module: Optional[ModuleId] = None) -> ComponentInstance:
    """Create a composite around existing children (possibly shared)."""
    child_list = list(children)
    if not child_list:
        raise EmptyComposite(name)
    if ports and info_module is None:
        raise InvariantViolation(f"composite {name} declares ports but has no info module")
    inst = ComponentInstance(name, ComponentKind.COMPOSITE, ports, None, info_module)
    if ports:
        _check_signature_kinds(mgr, inst)
    for child in child_list:
        add_child(inst, child)
    return inst


@dataclass(frozen=True)
class BindingCheck:
    """Outcome of a bind-time type check; carries the mismatch when not ok."""

    ok: bool
    mismatch: Optional[TypeMismatch] = None


def _compare_endpoint_types(mgr: ModuleManager, a: InterfacePort, b: InterfacePort) -> BindingCheck:
    ta = mgr.load_type(a.owner.info_module, a.signature)
    tb = mgr.load_type(b.owner.info_module, b.signature)
    if not same_type(ta, tb):
        detail = "" if ta.name == tb.name else f"{ta.name} vs {tb.name}"
        return BindingCheck(False, TypeMismatch(ta.name, ta.defined_by, tb.defined_by, detail))
    if a.version != b.version:
        return BindingCheck(False, TypeMismatch(
            ta.name, ta.defined_by, tb.defined_by,
            f"declared versions differ: {a.version} vs {b.version}"))
    return BindingCheck(True)


def check_binding(mgr: ModuleManager, client: InterfacePort, server: InterfacePort) -> BindingCheck:
    """Predict whether a binding will be type-safe without creating it.

    Both ends load their declared signature through their own info module; the
    check passes only when that produces one identical defined type and the
    declared versions agree.
    """
    if client.role is not Role.CLIENT:
        raise RoleError(f"{client} is not a client port")
    if server.role is not Role.SERVER:
        raise RoleError(f"{server} is not a server port")
    return _compare_endpoint_types(mgr, client, server)


def check_route(mgr: ModuleManager, outer: InterfacePort, inner: InterfacePort) -> BindingCheck:
    """Type check for a composite export route (same-role pair)."""
    if outer.role is not inner.role:
        raise RoleError(f"route {outer} -> {inner} must connect same-role ports")
    return _compare_endpoint_types(mgr, outer, inner)


def bind(mgr: ModuleManager, client: InterfacePort, server: InterfacePort,
         kind: BindingKind = BindingKind.PRIMITIVE) -> BindingRecord:
    """Bind an unbound, not routed-out client port to a server port after a successful check."""
    if kind is not BindingKind.PRIMITIVE:
        raise UnsupportedBindingKind(kind.value)
    result = check_binding(mgr, client, server)
    if not result.ok:
        raise result.mismatch
    if client.binding is not None or client.outbound_route is not None:
        raise AlreadyBound(str(client))
    record = BindingRecord(client, server)
    client.binding = record
    server.inbound.append(record)
    return record


def route(mgr: ModuleManager, a: InterfacePort, b: InterfacePort) -> None:
    """After a passing ``check_route``, route a composite's server port ``a`` in to its
    child's port ``b``, or a child's client port ``a`` that holds no link out to ``b``."""
    result = check_route(mgr, a, b)
    if not result.ok:
        raise result.mismatch
    if a.role is Role.SERVER:
        a.owner.export_routes[a.name] = b
    elif a.binding is not None or a.outbound_route is not None:
        raise AlreadyBound(str(a))
    else:
        a.outbound_route = b


def unbind(record: BindingRecord) -> None:
    if record.client.binding is not record:
        raise UnknownBinding()
    record.client.binding = None
    record.server.inbound.remove(record)


def add_child(composite: ComponentInstance, child: ComponentInstance) -> None:
    """Attach a child; the same child may live under several composites."""
    if composite.kind is not ComponentKind.COMPOSITE:
        raise RoleError(f"{composite.name} is not a composite")
    if child is composite or composite in child.descendants():
        raise ContainmentCycle(composite.name, child.name)
    if composite in child.parents:
        raise InvariantViolation(f"{child.name} is already a child of {composite.name}")
    composite.children.append(child)
    child.parents.append(composite)


def links(components: Iterable[ComponentInstance], composites: Iterable[ComponentInstance],
          touching: Optional[ComponentInstance] = None):
    """Each link as (kind, label, from port, to port): the bindings of ``components``'
    client ports, then ``composites``' export routes by name (``route-in``), then the
    components' outbound routes (``route-out``); components as given, ports in order.
    With ``touching``, only the links with an end at that component's ports, skipped
    before their labels are built."""
    def keep(a: ComponentInstance, b: ComponentInstance) -> bool:
        return touching is None or touching is a or touching is b

    routes_out = []
    for comp in components:
        for port in comp.interfaces:  # only client ports hold a binding or an outbound route
            binding, route = port.binding, port.outbound_route
            if binding is not None and keep(comp, binding.server.owner):
                yield "binding", str(binding), port, binding.server
            if route is not None and keep(comp, route.owner):
                routes_out.append(("route-out", f"{port} -> this.{route.name}", port, route))
    for composite in composites:
        for name, target in sorted(composite.export_routes.items()):
            if keep(composite, target.owner):
                yield "route-in", f"this.{name} -> {target}", composite.port(name), target
    yield from routes_out


def remove_child(composite: ComponentInstance, child: ComponentInstance) -> None:
    """Detach a child from one parent, leaving other memberships alone.

    Refused while any link crosses the child's boundary: one of ``links`` over
    the subtree and ``composite`` with one end outside, or a binding entering
    the subtree; links wholly inside the child (or wholly outside) are fine.
    """
    if child not in composite.children:
        raise NotAChild(child.name, composite.name)
    subtree = {child} | child.descendants()
    crossing = [label for _, label, a, b in links(subtree, [composite])
                if (a.owner in subtree) != (b.owner in subtree)]
    crossing += [str(rec) for comp in subtree for port in comp.server_ports()
                 for rec in port.inbound if rec.client.owner not in subtree]
    if crossing:
        raise CrossBindingExists(crossing)
    composite.children.remove(child)
    child.parents.remove(composite)
