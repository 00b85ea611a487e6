"""Component model: primitives, composites, ports, and primitive bindings.

Components expose named client/server ports typed by an interface signature.
Each port is made from a port declaration as given, such as the ADL's
interface declaration, of which only ``name``, ``role`` and ``signature`` are
read; this module imports nothing from the ADL. A primitive carries a content
type (a class defined through its own info module); a composite encapsulates
children and may share a child with other composites, so containment is a
DAG, never a tree. Binding a client port to a server port is only legal when
both ends resolve the signature to the *same* defined type, i.e. the same
(name, defining module) pair.

Links live on the port they leave, and only ``bind``, ``unbind`` and ``route``
write them: a client port holds a binding (also in its server's ``inbound``)
or a ``route`` out to its composite's client port; a composite's server port
holds a ``route`` in to its child's. A route joins only a composite and its
child, so every chain of routes ends. ``links`` is the one walk over them, and
the one reader of ``inbound``; asked for the links touching one component, it
skips the others before formatting their labels. A check returns its
``TypeMismatch``, or ``None``.

Every writer here checks everything before it writes, so a refusal
writes nothing. ``remove_child``, which runtime's remove makes before its
module removals, is the one that also logs its inverse, through the
manager's ``log_undo``, so a later refusal in the same undo block puts the
child back at its index among the composite's children.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional, Sequence

from .corpus import TypeDef, TypeKind
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


class InterfacePort:
    """A named access point of one component, made from a port declaration.

    It reads only the declaration's ``name``, ``role`` and ``signature``. Its
    ``version`` is the version of the signature it loads through its owner's
    info module, set where that load first happens (``_check_signature_kinds``),
    never the version the declaration names.
    """

    __slots__ = ("name", "role", "signature", "version", "owner", "binding", "inbound", "route")

    def __init__(self, declared, owner: "ComponentInstance"):
        self.name = declared.name
        self.role = declared.role
        self.signature = declared.signature
        self.owner = owner
        self.binding: Optional[BindingRecord] = None   # client side, at most one
        self.inbound: list[BindingRecord] = []         # server side
        self.route: Optional[InterfacePort] = None     # the same-role port a call goes on to

    def __str__(self) -> str:
        return f"{self.owner.name}.{self.name}"


class BindingRecord:
    """A primitive binding of a client to a server port, live while the client holds it."""

    __slots__ = ("client", "server")

    def __init__(self, client: InterfacePort, server: InterfacePort):
        self.client = client
        self.server = server

    def __str__(self) -> str:
        return f"{self.client} -> {self.server}"


class ComponentInstance:
    __slots__ = ("name", "kind", "interfaces", "content", "children", "parents", "info_module",
                 "source", "impl_modules")

    def __init__(self, name: str, kind: ComponentKind, ports: Sequence,
                 content: Optional[DefinedType], info_module: Optional[ModuleId]):
        self.name = name
        self.kind = kind
        port_names = [declared.name for declared in ports]
        if len(port_names) != len(set(port_names)):
            raise DuplicatePort(name, next(n for i, n in enumerate(port_names)
                                           if n in port_names[:i]))
        self.interfaces = [InterfacePort(declared, self) for declared in ports]
        self.content = content
        self.children: list[ComponentInstance] = []
        self.parents: list[ComponentInstance] = []
        self.info_module = info_module
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


def _check_signature_kinds(mgr: ModuleManager, inst: ComponentInstance) -> list[TypeDef]:
    """Each port's signature, loaded once through the component's info module, in port
    order, and the port's version read off it; ``SignatureNotInterface`` at the first
    that is not an interface."""
    signatures = []
    for port in inst.interfaces:
        definition = mgr.load_type(inst.info_module, port.signature).definition
        if definition.kind is not TypeKind.INTERFACE:
            raise SignatureNotInterface(port.signature)
        port.version = definition.version
        signatures.append(definition)
    return signatures


def _check_methods(content: TypeDef, name: str, signature: TypeDef) -> None:
    """Raise MissingMethod at the first method of ``signature``, declared as ``name``, that
    ``content`` lacks; a method matches on name and parameter type names."""
    implemented = {(m.name, m.params) for m in content.methods}
    for method in signature.methods:
        if (method.name, method.params) not in implemented:
            raise MissingMethod(name, method.name)


def check_conformance(mgr: ModuleManager, inst: ComponentInstance, content: TypeDef) -> None:
    """Raise MissingMethod unless ``content`` implements every server port's methods.

    The interfaces are the definitions loaded through the component's own info
    module, each only once the ports before it conform.
    """
    for port in inst.interfaces:
        if port.role is Role.SERVER:
            _check_methods(content, port.signature,
                           mgr.load_type(inst.info_module, port.signature).definition)


def new_primitive(mgr: ModuleManager, name: str, ports: Sequence,
                  content: DefinedType, info_module: ModuleId) -> ComponentInstance:
    """Create a primitive component around a content class that conforms to its ports,
    one per declaration in ``ports``, as given.

    Every port's signature must be an interface before the server ports' methods are
    checked, and each is loaded once."""
    if content.definition.kind is not TypeKind.CLASS:
        raise ContentNotAClass(content.name)
    inst = ComponentInstance(name, ComponentKind.PRIMITIVE, ports, content, info_module)
    for port, signature in zip(inst.interfaces, _check_signature_kinds(mgr, inst)):
        if port.role is Role.SERVER:
            _check_methods(content.definition, port.signature, signature)
    return inst


def new_composite(mgr: ModuleManager, name: str, ports: Sequence,
                  children: Iterable[ComponentInstance],
                  info_module: Optional[ModuleId] = None) -> ComponentInstance:
    """Create a composite around existing children (possibly shared), with one port per
    declaration in ``ports``, as given."""
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


def _compare_endpoint_types(mgr: ModuleManager, a: InterfacePort,
                            b: InterfacePort) -> Optional[TypeMismatch]:
    ta = mgr.load_type(a.owner.info_module, a.signature)
    tb = mgr.load_type(b.owner.info_module, b.signature)
    if not same_type(ta, tb):
        detail = "" if ta.name == tb.name else f"{ta.name} vs {tb.name}"
        return TypeMismatch(ta.name, ta.defined_by, tb.defined_by, detail)
    return None


def check_binding(mgr: ModuleManager, client: InterfacePort,
                  server: InterfacePort) -> Optional[TypeMismatch]:
    """Predict whether a binding will be type-safe without creating it.

    Both ends load their declared signature through their own info module; it
    returns ``None`` only when that produces one identical defined type, else the
    ``TypeMismatch`` that ``bind`` would raise.
    """
    if client.role is not Role.CLIENT:
        raise RoleError(f"{client} is not a client port")
    if server.role is not Role.SERVER:
        raise RoleError(f"{server} is not a server port")
    return _compare_endpoint_types(mgr, client, server)


def check_route(mgr: ModuleManager, outer: InterfacePort,
                inner: InterfacePort) -> Optional[TypeMismatch]:
    """Type check for a route (same-role pair): the mismatch, or ``None``."""
    if outer.role is not inner.role:
        raise RoleError(f"route {outer} -> {inner} must connect same-role ports")
    return _compare_endpoint_types(mgr, outer, inner)


def bind(mgr: ModuleManager, client: InterfacePort, server: InterfacePort,
         kind: BindingKind = BindingKind.PRIMITIVE, *, replace: bool = False) -> BindingRecord:
    """Bind an unbound, not routed-out client port to a server port after a successful check.
    With ``replace`` the port may be bound; its binding is dropped once nothing can refuse."""
    if kind is not BindingKind.PRIMITIVE:
        raise UnsupportedBindingKind(kind.value)
    mismatch = check_binding(mgr, client, server)
    if mismatch is not None:
        raise mismatch
    if client.route is not None or client.binding is not None and not replace:
        raise AlreadyBound(str(client))
    if client.binding is not None:
        unbind(client.binding)
    record = BindingRecord(client, server)
    client.binding = record
    server.inbound.append(record)
    return record


def route(mgr: ModuleManager, a: InterfacePort, b: InterfacePort) -> None:
    """After a passing ``check_route``, route a composite's server port ``a`` in to its
    child's port ``b`` (replacing any route it held), or a child's client port ``a``
    that holds no link out to its composite's port ``b``. Any other pair of owners
    is refused with ``NotAChild`` before anything is written."""
    mismatch = check_route(mgr, a, b)
    if mismatch is not None:
        raise mismatch
    composite, child = (a.owner, b.owner) if a.role is Role.SERVER else (b.owner, a.owner)
    if child not in composite.children:
        raise NotAChild(child.name, composite.name)
    if a.role is Role.CLIENT and (a.binding is not None or a.route is not None):
        raise AlreadyBound(str(a))
    a.route = b


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
    client ports, then ``composites``' routes in by port name (``route-in``), then the
    components' routes out (``route-out``), then the bindings that enter the
    components from a client outside them; components as given, ports in order.
    With ``touching``, only the links with an end at that component's ports, skipped
    before their labels are built."""
    components = list(components)
    walked = set(components)
    routes_out, entering = [], []
    for comp in components:
        kept = touching is None or touching is comp  # every link at its ports is kept
        for port in comp.interfaces:
            if port.role is Role.SERVER:
                for rec in port.inbound:
                    client = rec.client.owner
                    if client not in walked and (kept or touching is client):
                        entering.append(rec)
                continue
            binding, target = port.binding, port.route
            if binding is not None and (kept or touching is binding.server.owner):
                yield "binding", str(binding), port, binding.server
            if target is not None and (kept or touching is target.owner):
                routes_out.append(("route-out", f"{port} -> this.{target.name}", port, target))
    for composite in composites:
        kept = touching is None or touching is composite
        for port in sorted([port for port in composite.interfaces
                            if port.route is not None and port.role is Role.SERVER],
                           key=_port_name):
            target = port.route
            if kept or touching is target.owner:
                yield "route-in", f"this.{port.name} -> {target}", port, target
    yield from routes_out
    for rec in entering:
        yield "binding", str(rec), rec.client, rec.server


def _port_name(port: InterfacePort) -> str:
    return port.name


def remove_child(mgr: ModuleManager, composite: ComponentInstance,
                 child: ComponentInstance) -> None:
    """Detach a child from one parent, leaving other memberships alone.

    Refused, before anything is written, while any of ``links`` over the subtree
    and ``composite`` crosses the child's boundary, one end outside; links wholly
    inside the child (or wholly outside) are fine. The two list entries it takes
    out are logged with ``mgr.log_undo`` to go back at their indexes, so a failure
    later in the open undo block puts the child back where it was.
    """
    if composite not in child.parents:  # kept in step with ``children``, and short
        raise NotAChild(child.name, composite.name)
    subtree = {child} | child.descendants()
    crossing = [label for _, label, a, b in links(subtree, [composite])
                if (a.owner in subtree) != (b.owner in subtree)]
    if crossing:
        raise CrossBindingExists(crossing)
    for entries, entry in ((composite.children, child), (child.parents, composite)):
        at = entries.index(entry)
        mgr.log_undo(entries.insert, at, entries.pop(at))
