from __future__ import annotations

import pytest

from reconfig.corpus import VersionTag, load_corpus
from reconfig.errors import (
    AlreadyBound,
    ContainmentCycle,
    ContentNotAClass,
    CrossBindingExists,
    EmptyComposite,
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
    bind,
    check_binding,
    new_composite,
    new_primitive,
    remove_child,
    unbind,
)
from reconfig.modules import ModuleManager

from conftest import corpus_path

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
    info = mgr.create_info_module(
        _pairs(("Service", "1.0"), ("Request", "1.0"), ("ClientImpl", "1.0"),
                 ("ServerImpl", "2.0"), ("java.lang.Runnable", "0")), providers=[res])
    return mgr, corpus, info


def _server(mgr, info, name="server"):
    content = mgr.load_type(info, "ServerImpl")
    return new_primitive(mgr, name, [PortSpec("s", Role.SERVER, "Service", V("1.0"))],
                         content, info)


def _client(mgr, info, name="client"):
    content = mgr.load_type(info, "ClientImpl")
    return new_primitive(mgr, name,
                         [PortSpec("r", Role.SERVER, "java.lang.Runnable", V("0")),
                          PortSpec("s", Role.CLIENT, "Service", V("1.0"))],
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
        new_primitive(mgr, "bad", [PortSpec("s", Role.SERVER, "Service", V("1.0"))],
                      mgr.load_type(info, "ClientImpl"), info)


def test_new_primitive_rejects_interface_content_and_class_signatures(world):
    mgr, corpus, info = world
    with pytest.raises(ContentNotAClass):
        new_primitive(mgr, "bad", [], mgr.load_type(info, "Service"), info)
    with pytest.raises(SignatureNotInterface):
        new_primitive(mgr, "bad", [PortSpec("r", Role.SERVER, "Request", V("1.0"))],
                      mgr.load_type(info, "ServerImpl"), info)


def test_new_composite_and_shared_children(world):
    mgr, corpus, info = world
    client, server = _client(mgr, info), _server(mgr, info)
    outer = new_composite(mgr, "HelloWorld",
                          [PortSpec("r", Role.SERVER, "java.lang.Runnable", V("0"))],
                          [client, server], info_module=info)
    assert outer.children == [client, server]
    assert client.parents == [outer]

    other = new_composite(mgr, "Other", [], [client])
    assert client.parents == [outer, other]  # shared component

    with pytest.raises(EmptyComposite):
        new_composite(mgr, "empty", [], [])


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


def test_check_binding_ok_and_role_errors(world):
    mgr, corpus, info = world
    client, server = _client(mgr, info), _server(mgr, info)
    result = check_binding(mgr, client.port("s"), server.port("s"))
    assert result.ok and result.mismatch is None

    with pytest.raises(RoleError):
        check_binding(mgr, server.port("s"), client.port("s"))
    with pytest.raises(RoleError):
        check_binding(mgr, client.port("s"), client.port("s"))


def test_check_binding_detects_private_signature_copies(world):
    mgr, corpus, info = world
    client = _client(mgr, info)
    # a second world: same names wired to a different defining module
    res2 = mgr.create_resource_module(
        _pairs(("Service", "1.0"), ("ServerImpl", "2.0"), ("Request", "1.0")), corpus)
    info2 = mgr.create_info_module(
        _pairs(("Service", "1.0"), ("ServerImpl", "2.0"), ("Request", "1.0")),
        providers=[res2])
    stranger = _server(mgr, info2, name="stranger")
    result = check_binding(mgr, client.port("s"), stranger.port("s"))
    assert not result.ok
    assert result.mismatch.type_name == "Service"
    assert result.mismatch.left_module != result.mismatch.right_module


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


def test_bind_raises_the_predicted_mismatch(world):
    mgr, corpus, info = world
    client = _client(mgr, info)
    res2 = mgr.create_resource_module(
        _pairs(("Service", "1.0"), ("ServerImpl", "2.0"), ("Request", "1.0")), corpus)
    info2 = mgr.create_info_module(
        _pairs(("Service", "1.0"), ("ServerImpl", "2.0"), ("Request", "1.0")),
        providers=[res2])
    stranger = _server(mgr, info2, name="stranger")
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
        remove_child(outer, server)

    unbind(record)
    remove_child(outer, server)
    assert server.parents == []
    from reconfig.model import add_child
    add_child(outer, server)  # re-adding after removal is fine
    assert server.parents == [outer]


def test_remove_child_keeps_other_memberships(world):
    mgr, corpus, info = world
    shared = _server(mgr, info)
    a = new_composite(mgr, "a", [], [shared])
    b = new_composite(mgr, "b", [], [shared])
    remove_child(a, shared)
    assert shared.parents == [b]
    assert shared in b.children
    with pytest.raises(NotAChild):
        remove_child(a, shared)


def test_internal_bindings_do_not_block_removal(world):
    mgr, corpus, info = world
    client, server = _client(mgr, info), _server(mgr, info)
    inner = new_composite(mgr, "inner", [], [client, server])
    outer = new_composite(mgr, "outer", [], [inner])
    bind(mgr, client.port("s"), server.port("s"))
    # binding is wholly inside the removed subtree
    remove_child(outer, inner)
    assert inner.parents == []
