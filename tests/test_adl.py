from __future__ import annotations

import random

import pytest

from reconfig.adl import (
    AdlBinding,
    AdlComponent,
    AdlDefinition,
    AdlInterface,
    parse_adl,
    parse_component_fragment,
    render_adl,
    validate,
)
from reconfig.corpus import CorpusStore, TypeDef, TypeKind, TypeRef, VersionTag, load_corpus
from reconfig.errors import AdlError, ParseError, UnknownAttribute, UnknownElement
from reconfig.model import Role

from conftest import adl_path, corpus_path

V = VersionTag

FIG = adl_path("hello.fractal.xml").read_text(encoding="utf-8")


def test_reference_architecture_parses_to_the_expected_ast():
    d = parse_adl(FIG)
    assert d.name == "HelloWorld" and d.version == V("2.0")
    assert [i.name for i in d.interfaces] == ["r"]
    assert d.interfaces[0].signature == "java.lang.Runnable"
    assert d.interfaces[0].version is None  # resolved later by the unique-version rule

    client, server = d.components
    assert client.name == "client"
    assert [(i.name, i.role) for i in client.interfaces] == [("r", Role.SERVER),
                                                             ("s", Role.CLIENT)]
    assert client.content == ("ClientImpl", V("1.0"))
    assert client.files == (("Request", V("1.0")),)
    assert server.content == ("ServerImpl", V("2.0"))

    assert d.bindings == (AdlBinding(("this", "r"), ("client", "r")),
                          AdlBinding(("client", "s"), ("server", "s")))


def test_empty_definition_parses():
    d = parse_adl('<definition name="X" version="1.0"></definition>')
    assert d == AdlDefinition("X", V("1.0"), (), (), ())


def test_whitespace_comments_and_attribute_order_do_not_matter():
    a = parse_adl('<definition name="X" version="1.0">'
                  '<component name="c"><content class="Request" version="1.0"/></component>'
                  '</definition>')
    b = parse_adl('<definition version="1.0" name="X">\n'
                  '  <!-- a component -->\n'
                  '  <component name="c">\n'
                  '     <content version="1.0" class="Request"/>\n'
                  '  </component>\n'
                  '</definition>\n')
    assert a == b


def test_binding_endpoint_must_contain_exactly_one_dot():
    bad = FIG.replace('client="client.s"', 'client="clients"')
    with pytest.raises(ParseError, match="component.port"):
        parse_adl(bad)


def test_unknown_element_and_attribute_are_rejected_with_positions():
    with pytest.raises(UnknownElement) as exc:
        parse_adl('<definition name="X" version="1.0"><widget/></definition>')
    assert exc.value.line == 1 and exc.value.tag == "widget"
    with pytest.raises(UnknownAttribute):
        parse_adl('<definition name="X" version="1.0" flavor="mint"></definition>')


def test_structural_invariants_are_parse_errors():
    dup = ('<definition name="X" version="1.0">'
           '<component name="c"><content class="Request" version="1.0"/></component>'
           '<component name="c"><content class="Request" version="1.0"/></component>'
           '</definition>')
    with pytest.raises(ParseError, match="unique component name"):
        parse_adl(dup)

    dangling = ('<definition name="X" version="1.0">'
                '<component name="c"><content class="Request" version="1.0"/></component>'
                '<binding client="ghost.p" server="c.p"/></definition>')
    with pytest.raises(ParseError, match="declared component"):
        parse_adl(dangling)

    no_port = ('<definition name="X" version="1.0">'
               '<component name="c"><content class="Request" version="1.0"/></component>'
               '<binding client="c.p" server="c.q"/></definition>')
    with pytest.raises(ParseError, match="declared port"):
        parse_adl(no_port)

    with pytest.raises(ParseError, match="content"):
        parse_adl('<definition name="X" version="1.0"><component name="c"></component>'
                  '</definition>')


_D = '<definition name="X" version="1.0">'
_C = '<content class="Request" version="1.0"/>'


@pytest.mark.parametrize("text, where, message", [
    (_D + '<component name="c"/></definition>', (1, 36),
     "expected <component> with a <content> child"),
    (_D + f'<component name="this">{_C}</component></definition>', (1, 36),
     "expected component name other than reserved 'this'"),
    ('<definition name="X" version="1.0"', (1, 35), "expected '>'"),
    ('<definition name="X" name="Y" version="1.0"></definition>', (1, 22),
     "expected attribute name given once"),
    (_D + f'<component name="c">{_C}{_C}</component></definition>', (1, 96),
     "expected a single <content> per component"),
    (_D + f'<component name="c"><binding client="a.b" server="c.d"/>{_C}</component>'
     '</definition>', (1, 56), "expected element allowed inside <component>, not <binding>"),
], ids=["no-content", "reserved-this", "cut-off", "attribute-twice", "two-contents",
        "binding-in-component"])
def test_each_structural_refusal_names_its_place_and_rule(text, where, message):
    with pytest.raises(ParseError) as exc:
        parse_adl(text)
    assert type(exc.value) is ParseError
    assert (exc.value.line, exc.value.col) == where
    assert str(exc.value) == f"{where[0]}:{where[1]}: {message}"


def test_check_invariants_raises_parse_errors_on_a_built_definition():
    comp = AdlComponent("c", (AdlInterface("p", Role.SERVER, "Service", None),),
                        ("Impl", None), (), 4, 9)
    dangling = AdlDefinition("X", V("1.0"), (), (comp,),
                             (AdlBinding(("c", "q"), ("c", "p"), 7, 5),))
    with pytest.raises(ParseError) as exc:
        dangling.check_invariants()
    assert (exc.value.line, exc.value.col) == (7, 5) and "c.q" in exc.value.detail
    with pytest.raises(ParseError, match="unique component name"):
        AdlDefinition("X", V("1.0"), (), (comp, comp), ()).check_invariants()


def test_a_definition_named_like_a_component_is_reported_at_that_component():
    text = ('<!-- two lines of preamble -->\n\n'
            '  <definition name="a" version="1.0">\n'
            '    <component name="b"><content class="K"/></component>\n'
            '    <component name="a"><content class="K"/></component>\n'
            '</definition>')
    with pytest.raises(ParseError) as exc:
        parse_adl(text)
    assert (exc.value.line, exc.value.col) == (5, 5)
    assert "definition name a distinct from its components" in exc.value.detail


def test_validate_raises_the_parse_error_for_a_built_binding_over_undeclared_ports():
    corpus = load_corpus(corpus_path("hello"))
    text = ('<definition name="X" version="1.0">\n'
            '<binding client="a.p" server="b.q"/></definition>')
    with pytest.raises(ParseError) as parsed:
        parse_adl(text)
    built = AdlDefinition("X", V("1.0"), (), (), (AdlBinding(("a", "p"), ("b", "q"), 2, 1),))
    with pytest.raises(ParseError) as checked:
        validate(built, corpus)
    assert (checked.value.line, checked.value.col, checked.value.detail) == \
        (parsed.value.line, parsed.value.col, parsed.value.detail)
    # a binding built without a position gets the same error class
    with pytest.raises(ParseError, match="a is not one"):
        validate(AdlDefinition("X", V("1.0"), (), (), (AdlBinding(("a", "p"), ("b", "q")),)),
                 corpus)


def test_endpoints_resolve_to_the_first_port_of_a_name():
    d = parse_adl('<definition name="X" version="1.0"><component name="a">'
                  '<interface name="p" role="server" signature="Service"/>'
                  '<interface name="p" role="client" signature="Request"/>'
                  '<content class="K"/></component></definition>')
    assert d.port(("a", "p")) is d.components[0].interfaces[0]
    assert d.port(("a", "q")) is None and d.port(("b", "p")) is None
    assert d.component("a") is d.components[0] and d.component("b") is None


def test_component_fragment_parser():
    comp = parse_component_fragment(
        '<component name="extra">'
        '<interface name="s" role="server" signature="Service" version="1.0"/>'
        '<content class="ServerImpl" version="2.0"/>'
        '<file name="Request" version="1.0"/></component>')
    assert comp.name == "extra"
    assert comp.content == ("ServerImpl", V("2.0"))
    with pytest.raises(UnknownElement):
        parse_component_fragment('<interface name="s" role="server" signature="S"/>')


def test_round_trip_of_the_reference_fixture():
    d = parse_adl(FIG)
    assert parse_adl(render_adl(d)) == d


def _random_definition(rng: random.Random) -> AdlDefinition:
    def ident(prefix, i):
        return f"{prefix}{i}"

    interfaces = tuple(
        AdlInterface(ident("p", i), rng.choice([Role.CLIENT, Role.SERVER]),
                     rng.choice(["Service", "java.lang.Runnable", "a.b.C"]),
                     rng.choice([None, V("1.0"), V("2")]))
        for i in range(rng.randint(0, 2)))
    components = []
    for c in range(rng.randint(1, 3)):
        ports = tuple(
            AdlInterface(ident("q", i), rng.choice([Role.CLIENT, Role.SERVER]),
                         "Service", rng.choice([None, V("1.0")]))
            for i in range(rng.randint(0, 2)))
        files = tuple((rng.choice(["Request", "Message"]), rng.choice([None, V("1.0")]))
                      for _ in range(rng.randint(0, 2)))
        components.append(AdlComponent(ident("comp", c), ports,
                                       ("Impl", rng.choice([None, V("3.1")])), files))
    return AdlDefinition(f"Def{rng.randint(0, 99)}", V("1.0"),
                         interfaces, tuple(components), ())


def test_round_trip_of_generated_definitions():
    rng = random.Random(23)
    for _ in range(60):
        d = _random_definition(rng)
        assert parse_adl(render_adl(d)) == d


def test_single_character_mutations_never_crash_the_parser():
    rng = random.Random(99)
    pool = '<>/"= \nabzA90._-!&;'
    for _ in range(400):
        pos = rng.randrange(len(FIG))
        mutated = FIG[:pos] + rng.choice(pool) + FIG[pos + 1:]
        try:
            parse_adl(mutated).check_invariants()
        except AdlError:
            pass


# --- validation --------------------------------------------------------------


@pytest.fixture
def hello():
    return load_corpus(corpus_path("hello"))


def _with_extra(corpus: CorpusStore, *typedefs: TypeDef) -> CorpusStore:
    index = {(td.name, td.version): td for td in corpus.entries()}
    for td in typedefs:
        index[(td.name, td.version)] = td
    return CorpusStore(corpus.root, index)


def test_reference_fixture_validates_cleanly(hello):
    assert validate(parse_adl(FIG), hello) == []


def test_validate_is_pure_and_ordered(hello):
    bad = FIG.replace('<content class="ServerImpl" version="2.0"/>',
                      '<content class="ServerImpl" version="3.0"/>')
    definition = parse_adl(bad)
    first = validate(definition, hello)
    second = validate(definition, hello)
    assert first == second
    assert [d.code for d in first] == ["UnresolvableContent"]
    assert "ServerImpl" in first[0].message and "3.0" in first[0].message


def test_version_mismatch_between_binding_ends(hello):
    service2 = TypeDef("Service", V("2.0"), TypeKind.INTERFACE,
                       (TypeRef("Request", V("1.0")),),
                       load_corpus(corpus_path("hello")).lookup(
                           TypeRef("Service", V("1.0"))).methods)
    corpus = _with_extra(hello, service2)
    mutated = FIG.replace('<interface name="s" role="server" \n'
                          '                   signature="Service" version="1.0"/>',
                          '<interface name="s" role="server" \n'
                          '                   signature="Service" version="2.0"/>')
    assert mutated != FIG
    diags = validate(parse_adl(mutated), corpus)
    # oracle: the two declared endpoint versions differ
    assert [d.code for d in diags] == ["VersionMismatch"]
    assert "client.s -> server.s" in diags[0].message


def test_role_and_duplicate_diagnostics(hello):
    text = ('<definition name="X" version="1.0">'
            '<component name="a">'
            '<interface name="p" role="server" signature="Service" version="1.0"/>'
            '<interface name="p" role="server" signature="Service" version="1.0"/>'
            '<content class="ServerImpl" version="2.0"/></component>'
            '<component name="b">'
            '<interface name="q" role="server" signature="Service" version="1.0"/>'
            '<content class="ServerImpl" version="2.0"/></component>'
            '<binding client="a.p" server="b.q"/>'
            '</definition>')
    diags = validate(parse_adl(text), hello)
    codes = [d.code for d in diags]
    assert codes == ["DuplicatePort", "RoleMismatch"]


_TWO_ROOT_PORTS = ('<definition name="X" version="1.0">'
                   '<interface name="r" role="server" signature="java.lang.Runnable"/>'
                   '<interface name="o" role="server" signature="java.lang.Runnable"/>'
                   '<component name="a">'
                   '<interface name="s" role="client" signature="Service" version="1.0"/>'
                   '<content class="ClientImpl" version="1.0"/></component>'
                   '<component name="b">'
                   '<interface name="s" role="server" signature="Service" version="1.0"/>'
                   '<interface name="c" role="client" signature="Service" version="1.0"/>'
                   '<content class="ServerImpl" version="2.0"/></component>'
                   '{}</definition>')


@pytest.mark.parametrize("bindings, expected", [
    ([("this.r", "this.o")],
     [("RoleMismatch", "binding this.r -> this.o connects two definition ports"),
      ("RoleMismatch", "server endpoint this.o must be a client port")]),
    ([("a.s", "b.c")], [("RoleMismatch", "server endpoint b.c must be a server port")]),
    ([("a.s", "b.s")] * 2, [("DuplicateBinding", "client endpoint a.s bound twice")]),
], ids=["two-definition-ports", "client-port-as-server", "bound-twice"])
def test_binding_role_and_duplicate_diagnostics_name_the_endpoint(hello, bindings, expected):
    text = _TWO_ROOT_PORTS.format("".join(f'<binding client="{c}" server="{s}"/>'
                                          for c, s in bindings))
    diags = validate(parse_adl(text), hello)
    assert [(d.code, d.message) for d in diags] == expected


def test_not_an_interface_and_signature_mismatch(hello):
    text = ('<definition name="X" version="1.0">'
            '<component name="a">'
            '<interface name="p" role="client" signature="Request" version="1.0"/>'
            '<content class="ServerImpl" version="2.0"/></component>'
            '<component name="b">'
            '<interface name="q" role="server" signature="Service" version="1.0"/>'
            '<content class="ServerImpl" version="2.0"/></component>'
            '<binding client="a.p" server="b.q"/>'
            '</definition>')
    diags = validate(parse_adl(text), hello)
    assert [d.code for d in diags] == ["NotAnInterface", "SignatureMismatch"]


def test_unresolvable_file_reported(hello):
    text = FIG.replace('<file name="Request" version="1.0"/>',
                       '<file name="Ghost" version="1.0"/>', 1)
    diags = validate(parse_adl(text), hello)
    assert [d.code for d in diags] == ["UnresolvableFile"]


def test_diagnostic_rendering_shape(hello):
    bad = FIG.replace('class="ServerImpl" version="2.0"', 'class="ServerImpl" version="3.0"')
    diag = validate(parse_adl(bad), hello)[0]
    level, code, location, *_ = diag.render().split(" ")
    assert level == "ERROR" and code == "UnresolvableContent"
    assert ":" in location
