from __future__ import annotations

from collections import Counter

import pytest

from reconfig.corpus import VersionTag, load_corpus
from reconfig.errors import (
    AlreadyBound,
    ContainmentCycle,
    ContentNotAClass,
    CrossBindingExists,
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
from reconfig.model import (
    BindingKind,
    PortSpec,
    Role,
    add_child,
    bind,
    check_binding,
    check_route,
    new_composite,
    new_primitive,
    remove_child,
    route,
    unbind,
)
from reconfig.modules import ModuleManager

from conftest import corpus_path, table_from_index

V = VersionTag


def _pairs(*pairs):
    return [(n, V(v)) for n, v in pairs]


@pytest.fixture
def world():
    """Manager over the hello corpus with one module exporting everything."""
    corpus = load_corpus(corpus_path("hello"))
    mgr = ModuleManager()
    res = mgr.create_resource_module(
        _pairs(("Service", "1.0"), ("Request", "1.0"), ("ClientImpl", "1.0"),
                 ("ServerImpl", "2.0"), ("java.lang.Runnable", "0")), corpus)
    info = mgr.create_info_module(table_from_index(mgr, _pairs(
        ("Service", "1.0"), ("Request", "1.0"), ("ClientImpl", "1.0"),
        ("ServerImpl", "2.0"), ("java.lang.Runnable", "0"))))
    return mgr, corpus, info


def _server(mgr, info, name="server"):
    content = mgr.load_type(info, "ServerImpl")
    return new_primitive(mgr, name, [PortSpec("s", Role.SERVER, "Service")],
                         content, info)


def _client(mgr, info, name="client"):
    content = mgr.load_type(info, "ClientImpl")
    return new_primitive(mgr, name,
                         [PortSpec("r", Role.SERVER, "java.lang.Runnable"),
                          PortSpec("s", Role.CLIENT, "Service")],
                         content, info)


def test_new_primitive_checks_conformance(world):
    mgr, corpus, info = world
    server = _server(mgr, info)
    assert server.content.name == "ServerImpl"
    assert server.parents == [] and server.children == []

    inert = new_primitive(mgr, "inert", [], mgr.load_type(info, "ServerImpl"), info)
    assert inert.interfaces == []

    # oracle: the interface requires methods the content does not implement
    service = mgr.load_type(info, "Service").definition
    client_impl = mgr.load_type(info, "ClientImpl").definition
    missing = {(m.name, m.params) for m in service.methods} - \
              {(m.name, m.params) for m in client_impl.methods}
    assert missing
    with pytest.raises(MissingMethod):
        new_primitive(mgr, "bad", [PortSpec("s", Role.SERVER, "Service")],
                      mgr.load_type(info, "ClientImpl"), info)


def test_new_primitive_rejects_interface_content_and_class_signatures(world):
    mgr, corpus, info = world
    with pytest.raises(ContentNotAClass):
        new_primitive(mgr, "bad", [], mgr.load_type(info, "Service"), info)
    with pytest.raises(SignatureNotInterface):
        new_primitive(mgr, "bad", [PortSpec("r", Role.SERVER, "Request")],
                      mgr.load_type(info, "ServerImpl"), info)


def test_new_composite_and_shared_children(world):
    mgr, corpus, info = world
    client, server = _client(mgr, info), _server(mgr, info)
    outer = new_composite(mgr, "HelloWorld",
                          [PortSpec("r", Role.SERVER, "java.lang.Runnable")],
                          [client, server], info_module=info)
    assert outer.children == [client, server]
    assert client.parents == [outer]

    other = new_composite(mgr, "Other", [], [client])
    assert client.parents == [outer, other]  # shared component

    with pytest.raises(EmptyComposite):
        new_composite(mgr, "empty", [], [])


def test_a_child_is_added_once_and_a_composite_with_ports_needs_an_info_module(world):
    mgr, corpus, info = world
    server = _server(mgr, info)
    outer = new_composite(mgr, "outer", [], [server])
    with pytest.raises(InvariantViolation, match="already a child"):
        add_child(outer, server)
    assert outer.children == [server] and server.parents == [outer]

    ports = [PortSpec("s", Role.SERVER, "Service")]
    with pytest.raises(InvariantViolation, match="declares ports but has no info module"):
        new_composite(mgr, "ported", ports, [server])
    assert outer.children == [server] and server.parents == [outer]
    assert server.children == []


def test_containment_stays_a_dag(world):
    mgr, corpus, info = world
    leaf = _server(mgr, info)
    inner = new_composite(mgr, "inner", [], [leaf])
    outer = new_composite(mgr, "outer", [], [inner])
    from reconfig.model import add_child
    with pytest.raises(ContainmentCycle):
        add_child(inner, outer)
    with pytest.raises(ContainmentCycle):
        add_child(inner, inner)


def test_a_diamond_of_composites_lists_its_shared_child_once_and_refuses_the_cycle(world):
    mgr, corpus, info = world
    leaf = _server(mgr, info)
    shared = new_composite(mgr, "shared", [], [leaf])
    left = new_composite(mgr, "left", [], [shared])
    right = new_composite(mgr, "right", [], [shared])
    top = new_composite(mgr, "top", [], [left, right])
    assert top.descendants() == {left, right, shared, leaf}
    with pytest.raises(ContainmentCycle):
        add_child(shared, top)
    assert shared.children == [leaf] and top.parents == []
    assert shared.parents == [left, right]


def test_check_binding_ok_and_role_errors(world):
    mgr, corpus, info = world
    client, server = _client(mgr, info), _server(mgr, info)
    assert check_binding(mgr, client.port("s"), server.port("s")) is None

    with pytest.raises(RoleError):
        check_binding(mgr, server.port("s"), client.port("s"))
    with pytest.raises(RoleError):
        check_binding(mgr, client.port("s"), client.port("s"))
    assert check_route(mgr, server.port("s"), server.port("s")) is None
    with pytest.raises(RoleError, match="same-role"):
        check_route(mgr, server.port("s"), client.port("s"))


def test_check_binding_detects_private_signature_copies(world):
    mgr, corpus, info = world
    client = _client(mgr, info)
    stranger = _stranger(mgr, corpus)  # same names wired to a different defining module
    mismatch = check_binding(mgr, client.port("s"), stranger.port("s"))
    assert isinstance(mismatch, TypeMismatch)
    assert mismatch.type_name == "Service"
    assert mismatch.left_module != mismatch.right_module


def test_bind_unbind_cycle(world):
    mgr, corpus, info = world
    client, server = _client(mgr, info), _server(mgr, info)
    record = bind(mgr, client.port("s"), server.port("s"))
    assert client.port("s").binding is record
    assert record in server.port("s").inbound

    with pytest.raises(AlreadyBound):
        bind(mgr, client.port("s"), server.port("s"))

    unbind(record)
    assert client.port("s").binding is None
    with pytest.raises(UnknownBinding):
        unbind(record)

    again = bind(mgr, client.port("s"), server.port("s"))  # rebindable after unbind
    assert client.port("s").binding is again


def test_route_writes_in_and_out_and_refuses_a_client_port_that_holds_a_link(world):
    mgr, corpus, info = world
    client, server, bound = _client(mgr, info), _server(mgr, info), _client(mgr, info, "bound")
    outer = new_composite(mgr, "outer", [PortSpec("s", Role.SERVER, "Service"),
                                         PortSpec("c", Role.CLIENT, "Service")],
                          [client, server, bound], info_module=info)
    route(mgr, outer.port("s"), server.port("s"))
    assert outer.port("s").route is server.port("s")
    route(mgr, client.port("s"), outer.port("c"))
    assert client.port("s").route is outer.port("c")
    bind(mgr, bound.port("s"), server.port("s"))
    for held in (client, bound):
        with pytest.raises(AlreadyBound):
            route(mgr, held.port("s"), outer.port("c"))
    assert client.port("s").binding is None and bound.port("s").route is None


def _stranger(mgr, corpus):
    """A server whose info module loads Service from a module of its own."""
    res2 = mgr.create_resource_module(
        _pairs(("Service", "1.0"), ("ServerImpl", "2.0"), ("Request", "1.0")), corpus)
    info2 = mgr.create_info_module({n: (v, res2) for n, v in _pairs(
        ("Service", "1.0"), ("ServerImpl", "2.0"), ("Request", "1.0"))})
    return _server(mgr, info2, name="stranger")


def test_route_between_different_types_raises_the_mismatch_and_writes_nothing(world):
    mgr, corpus, info = world
    stranger = _stranger(mgr, corpus)
    outer = new_composite(mgr, "outer", [PortSpec("s", Role.SERVER, "Service")],
                          [stranger], info_module=info)
    with pytest.raises(TypeMismatch):
        route(mgr, outer.port("s"), stranger.port("s"))
    assert outer.port("s").route is None


def test_route_joins_only_a_composite_and_its_child(world):
    mgr, corpus, info = world
    client, other = _client(mgr, info), _client(mgr, info, "other")
    server, spare = _server(mgr, info), _server(mgr, info, "spare")
    new_composite(mgr, "outer", [], [client, other, server, spare])
    with pytest.raises(NotAChild, match="^client is not a child of other$"):
        route(mgr, client.port("s"), other.port("s"))
    with pytest.raises(NotAChild, match="^spare is not a child of server$"):
        route(mgr, server.port("s"), spare.port("s"))
    assert all(p.route is None for c in (client, other, server, spare) for p in c.interfaces)


def test_only_a_composite_takes_children(world):
    mgr, corpus, info = world
    client, server = _client(mgr, info), _server(mgr, info)
    with pytest.raises(RoleError, match="server is not a composite"):
        add_child(server, client)
    assert server.children == [] and client.parents == []


def test_bind_raises_the_predicted_mismatch(world):
    mgr, corpus, info = world
    client = _client(mgr, info)
    stranger = _stranger(mgr, corpus)
    with pytest.raises(TypeMismatch):
        bind(mgr, client.port("s"), stranger.port("s"))
    assert client.port("s").binding is None


def test_composite_bindings_are_not_supported(world):
    mgr, corpus, info = world
    client, server = _client(mgr, info), _server(mgr, info)
    with pytest.raises(UnsupportedBindingKind):
        bind(mgr, client.port("s"), server.port("s"), kind=BindingKind.COMPOSITE)


def test_remove_child_refuses_while_bindings_cross(world):
    mgr, corpus, info = world
    client, server = _client(mgr, info), _server(mgr, info)
    outer = new_composite(mgr, "outer", [], [client, server])
    record = bind(mgr, client.port("s"), server.port("s"))

    # oracle: endpoints fall on different sides of the child boundary
    subtree = {server}
    assert (record.client.owner in subtree) != (record.server.owner in subtree)
    with pytest.raises(CrossBindingExists):
        remove_child(mgr, outer, server)

    unbind(record)
    remove_child(mgr, outer, server)
    assert server.parents == []
    from reconfig.model import add_child
    add_child(outer, server)  # re-adding after removal is fine
    assert server.parents == [outer]


def test_remove_child_keeps_other_memberships(world):
    mgr, corpus, info = world
    shared = _server(mgr, info)
    a = new_composite(mgr, "a", [], [shared])
    b = new_composite(mgr, "b", [], [shared])
    remove_child(mgr, a, shared)
    assert shared.parents == [b]
    assert shared in b.children
    with pytest.raises(NotAChild):
        remove_child(mgr, a, shared)


def test_internal_bindings_do_not_block_removal(world):
    mgr, corpus, info = world
    client, server = _client(mgr, info), _server(mgr, info)
    inner = new_composite(mgr, "inner", [], [client, server])
    outer = new_composite(mgr, "outer", [], [inner])
    bind(mgr, client.port("s"), server.port("s"))
    # binding is wholly inside the removed subtree
    remove_child(mgr, outer, inner)
    assert inner.parents == []


def test_every_signature_must_be_an_interface_before_any_method_is_checked(world):
    """Both refusals apply: ClientImpl lacks Service's methods, and Request is a class.
    The kinds of all ports are checked first, so the later port's refusal wins."""
    mgr, corpus, info = world
    with pytest.raises(SignatureNotInterface) as exc:
        new_primitive(mgr, "bad", [PortSpec("s", Role.SERVER, "Service"),
                                   PortSpec("q", Role.CLIENT, "Request")],
                      mgr.load_type(info, "ClientImpl"), info)
    assert str(exc.value) == "port signature Request is not an interface typedef"
    with pytest.raises(MissingMethod):
        new_primitive(mgr, "bad", [PortSpec("s", Role.SERVER, "Service"),
                                   PortSpec("q", Role.CLIENT, "java.lang.Runnable")],
                      mgr.load_type(info, "ClientImpl"), info)


def test_a_new_primitive_loads_each_port_signature_once(world, monkeypatch):
    """Counted, never timed: the kind check and the conformance check share one load."""
    mgr, corpus, info = world
    loads = Counter()
    real = mgr.load_type

    def counted(via, name):
        loads[name] += 1
        return real(via, name)

    monkeypatch.setattr(mgr, "load_type", counted)
    _client(mgr, info)
    assert loads == {"ClientImpl": 1, "java.lang.Runnable": 1, "Service": 1}
