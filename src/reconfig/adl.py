"""Architecture description parser and static validator.

The accepted language is a deliberately small XML subset: the elements
``definition, interface, component, content, file, binding`` with the
attributes ``name, version, role, signature, class, client, server``.
Comments are allowed wherever whitespace is; there are no namespaces, no
prolog, no DTD, and no nested components. Leaf elements must be self-closing.
Everything outside this subset is rejected with a position, which keeps the
parser honest under fuzzing: any input either yields a well-formed definition
or a diagnostic error, never a crash.

A document is read by one walk over its elements, with two ways to read an
element. The walk first tries one compiled match, anchored where the last
element ended and in the scanner's own grammar: it takes the space and
comments before the element and the whole tag, and one ``findall`` lists the
tag's attributes. On a miss, or on a tag it does not accept (a repeated or
unknown attribute, an element the container does not allow, a comment inside
a closing tag), it consumes nothing, and the span scanner reads that one
element from the same place and raises any positioned error. The scanner
moves by spans: compiled patterns match whitespace and comments, names and
attribute values, one attribute at a time. A line and column are worked out
only where an element starts or an error is raised, by counting the newlines
since the last position worked out. Both readers share the element checks
(``_Tag``), the functions that make ``<definition>`` and ``<component>``
(driven by the table of the children each container allows) and one leaf
branch for ``interface``, ``content``, ``file`` and ``binding``.

A document repeats itself, and each distinct declaration is read once per
parse: the match reads each distinct attribute text of a tag once, and a leaf
whose tag and attributes match an earlier clean one reuses its checked values
and takes only its own position. Refusals are never kept, so an element that
fails a check fails it, with its own position, however often it repeats.
Nothing read outlives the parse.
``AdlDefinition.check_invariants`` is the structure check ``parse_adl`` runs;
it and ``validate`` resolve binding endpoints through the definition's port
index.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .corpus import CorpusStore, TypeDef, TypeKind, VersionTag, is_type_name
from .errors import AmbiguousVersion, NotFound, ParseError, UnknownAttribute, UnknownElement
from .model import Role

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_SPACE_RE = re.compile(r"[ \t\r\n]*")
_SPACE_OR_COMMENT_RE = re.compile(r"(?:[ \t\r\n]+|<!--.*?-->)*", re.DOTALL)
_NAME_RE = re.compile(r"[\w.-]+")
_VALUE_RE = re.compile(r'[^"<&\n]*')
#: One element with the space and comments before it. Group 1 is a closing
#: tag's name; otherwise group 2 is an opening tag's name, group 3 its
#: ``attr="v"`` list and group 4 the ``/`` of a self-closing tag. A comment
#: holds no ``-->``, so, as in the scanner, it ends at the first one: backing
#: off cannot stretch it over the next one. Space is taken one character per
#: repeat, so backing off is linear.
_ELEMENT_RE = re.compile(r'(?:[ \t\r\n]|<!--(?:[^-]|-(?!->))*-->)*<(?:/([\w.-]+)[ \t\r\n]*'
                         r'|([\w.-]+)((?:[ \t\r\n]+[\w.-]+="[^"<&\n]*")*)[ \t\r\n]*(/?))>')
_ATTR_RE = re.compile(r'([\w.-]+)="([^"<&\n]*)"')

_KNOWN_ATTRS = {
    "definition": {"name", "version"},
    "interface": {"name", "role", "signature", "version"},
    "component": {"name"},
    "content": {"class", "version"},
    "file": {"name", "version"},
    "binding": {"client", "server"},
}

#: The child elements each container allows.
_CHILDREN = {
    "definition": ("interface", "component", "binding"),
    "component": ("interface", "content", "file"),
}


@dataclass(frozen=True, slots=True)
class AdlInterface:
    name: str
    role: Role
    signature: str
    version: Optional[VersionTag]
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class AdlComponent:
    name: str
    interfaces: tuple[AdlInterface, ...]
    content: tuple[str, Optional[VersionTag]]
    files: tuple[tuple[str, Optional[VersionTag]], ...]
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class AdlBinding:
    client: tuple[str, str]
    server: tuple[str, str]
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)

    def __str__(self) -> str:
        return (f"{self.client[0]}.{self.client[1]} -> "
                f"{self.server[0]}.{self.server[1]}")


@dataclass(frozen=True)
class AdlDefinition:
    name: str
    version: VersionTag
    interfaces: tuple[AdlInterface, ...]
    components: tuple[AdlComponent, ...]
    bindings: tuple[AdlBinding, ...]

    @cached_property
    def _components(self) -> dict[str, AdlComponent]:
        """Component name -> the first component of that name."""
        return {c.name: c for c in reversed(self.components)}

    @cached_property
    def _ports(self) -> dict[str, dict[str, AdlInterface]]:
        """Owner ('this' for the definition) -> port name -> its first port of that name."""
        owners = {name: comp.interfaces for name, comp in self._components.items()}
        owners["this"] = self.interfaces
        return {owner: {i.name: i for i in reversed(ports)} for owner, ports in owners.items()}

    def component(self, name: str) -> Optional[AdlComponent]:
        return self._components.get(name)

    def port(self, endpoint: tuple[str, str]) -> Optional[AdlInterface]:
        """The port a binding endpoint ``(component or 'this', port)`` names."""
        owner, port = endpoint
        return self._ports.get(owner, {}).get(port)

    def check_invariants(self) -> None:
        """Raise ParseError unless component names are unique and differ from
        the definition's, and every binding joins two declared ports."""
        seen: set[str] = set()
        for comp in self.components:
            if comp.name in seen:
                raise ParseError(comp.line, comp.col, f"unique component name, {comp.name} repeats")
            seen.add(comp.name)
        if self.name in seen:
            clash = self.component(self.name)
            raise ParseError(clash.line, clash.col,
                             f"definition name {self.name} distinct from its components")
        for b in self.bindings:
            for owner, port in (b.client, b.server):
                if self.port((owner, port)) is not None:
                    continue
                if owner != "this" and owner not in seen:
                    raise ParseError(b.line, b.col, f"binding over declared component, "
                                                    f"{owner} is not one")
                raise ParseError(b.line, b.col,
                                 f"binding over declared port, {owner}.{port} is not one")


@dataclass
class _Tag:
    """An opening tag's attributes and position, with the checks on their values."""

    attrs: dict[str, str]
    closed: bool
    line: int
    col: int

    def error(self, expected: str) -> ParseError:
        return ParseError(self.line, self.col, expected)

    def require(self, name: str) -> str:
        if name not in self.attrs:
            raise self.error(f"attribute {name}")
        return self.attrs[name]

    def identifier(self, name: str, what: str) -> str:
        value = self.require(name)
        if not _IDENT_RE.match(value):
            raise self.error(f"{what} identifier, not {value!r}")
        return value

    def version(self) -> VersionTag:
        value = self.require("version")
        try:
            return VersionTag(value)
        except ValueError:
            raise self.error(f"version like 1.0, not {value!r}") from None

    def typed(self, name: str, what: str) -> tuple[str, Optional[VersionTag]]:
        """A type name attribute plus the optional ``version``."""
        value = self.require(name)
        if not is_type_name(value):
            raise self.error(f"{what} type name, not {value!r}")
        return value, (self.version() if "version" in self.attrs else None)

    def endpoint(self, name: str) -> tuple[str, str]:
        value = self.require(name)
        parts = value.split(".")
        if len(parts) != 2 or not all(parts):
            raise self.error(f"binding endpoint 'component.port', not {value!r}")
        return parts[0], parts[1]


class _Scanner:
    """The one walk over a document, with two ways to read an element.

    At each element the walk first tries one anchored ``_ELEMENT_RE`` match
    of the space and comments before the element and its whole tag, and takes
    it when the tag is one the container allows and gives known attributes
    once. On a miss, on a closing tag of another element, or on a tag that
    test refuses, it consumes nothing, and the scanner's code reads that one
    element by spans from the same place. The scanner is the reference for
    what a document may be and for every error, its class, message and
    position.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        # The last position located, its line and the start of that line.
        self._mark, self._line, self._line_start = 0, 1, 0
        # (tag, attribute text) of each tag the match took -> its attributes, a
        # dict that tags of that text share and nothing changes.
        self._attrs: dict[tuple[str, str], dict[str, str]] = {}
        # (tag, attributes) of each leaf read cleanly -> its checked values.
        self._leaves: dict[tuple[str, tuple[tuple[str, str], ...]], tuple] = {}

    def where(self, pos: Optional[int] = None) -> tuple[int, int]:
        """Line and column of ``pos`` (default: here).

        Positions are located in text order, so each call counts only the
        newlines in the span consumed since the previous one, and looks for
        the start of its line only among them.
        """
        pos = self.pos if pos is None else pos
        newlines = self.text.count("\n", self._mark, pos)
        if newlines:
            self._line += newlines
            self._line_start = self.text.rfind("\n", self._mark, pos) + 1
        self._mark = pos
        return self._line, pos - self._line_start + 1

    def error(self, expected: str) -> ParseError:
        return ParseError(*self.where(), expected)

    def skip_space_and_comments(self) -> None:
        self.pos = _SPACE_OR_COMMENT_RE.match(self.text, self.pos).end()
        if self.text.startswith("<!--", self.pos):
            raise self.error("comment terminator '-->'")

    def expect(self, literal: str) -> None:
        """Consume ``literal``, or fail where the text first departs from it."""
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return
        got = self.text[self.pos:self.pos + len(literal)]
        self.pos += len(os.path.commonprefix([literal, got]))
        raise self.error(repr(literal))

    def read_name(self) -> str:
        m = _NAME_RE.match(self.text, self.pos)
        if m is None:
            raise self.error("a name")
        self.pos = m.end()
        return m.group()

    def read_tag(self, tag: str, line: int, col: int) -> _Tag:
        """Read the attributes of ``<tag`` up to '>' or '/>', one at a time,
        each error where it arises."""
        attrs: dict[str, str] = {}
        while True:
            start = self.pos
            self.pos = _SPACE_RE.match(self.text, start).end()
            if self.pos == len(self.text):
                raise self.error("'>'")
            for end, closed in ((">", False), ("/>", True)):
                if self.text.startswith(end, self.pos):
                    self.pos += len(end)
                    return _Tag(attrs, closed, line, col)
            if self.pos == start:
                raise self.error("whitespace before attribute")
            at = self.pos
            name = self.read_name()
            if name not in _KNOWN_ATTRS[tag]:
                raise UnknownAttribute(*self.where(at), name)
            if name in attrs:
                raise ParseError(*self.where(at), f"attribute {name} given once")
            self.expect("=")
            self.expect('"')
            value = _VALUE_RE.match(self.text, self.pos).group()
            self.pos += len(value)
            if not self.text.startswith('"', self.pos):
                raise self.error("closing quote")
            self.pos += 1
            attrs[name] = value

    def matched_tag(self, m: re.Match, tag: str) -> Optional[_Tag]:
        """The opening ``<tag`` that ``m`` matched, consumed, if it gives known
        attributes once; else None, and nothing is consumed. An attribute text
        already taken for this tag is not read again."""
        key = (tag, m.group(3))
        attrs = self._attrs.get(key)
        if attrs is None:
            pairs = _ATTR_RE.findall(self.text, *m.span(3))
            attrs = dict(pairs)
            if len(attrs) != len(pairs) or not attrs.keys() <= _KNOWN_ATTRS[tag]:
                return None
            self._attrs[key] = attrs
        self.pos = m.end()
        return _Tag(attrs, m.group(4) == "/", *self.where(m.start(2) - 1))

    def read_root(self, root: str):
        """Read a whole document made of one ``root`` element."""
        m = _ELEMENT_RE.match(self.text)
        element = self.matched_tag(m, root) if m is not None and m.group(2) == root else None
        if element is None:
            self.skip_space_and_comments()
            line, col = self.where()
            self.expect("<")
            tag = self.read_name()
            if tag != root:
                raise UnknownElement(line, col, tag)
            element = self.read_tag(root, line, col)
        element = _CONTAINERS[root](self, element)
        self.skip_space_and_comments()
        if self.pos != len(self.text):
            raise self.error("end of input")
        return element

    def read_child(self, container: str, found: dict[str, list]) -> Optional[tuple[str, _Tag]]:
        """The next child's name and opening tag, or None past ``</container>``:
        read by the anchored match where it is a tag ``found`` still allows
        that gives known attributes once, else by the scanner from here."""
        m = _ELEMENT_RE.match(self.text, self.pos)
        if m is not None:
            closing, tag = m.group(1, 2)
            if closing == container:
                self.pos = m.end()
                return None
            if tag in found and not (tag == "content" and found["content"]):
                element = self.matched_tag(m, tag)
                if element is not None:
                    return tag, element
        self.skip_space_and_comments()
        line, col = self.where()
        self.expect("<")
        if self.text.startswith("/", self.pos):
            self.expect("/" + container)
            self.skip_space_and_comments()
            self.expect(">")
            return None
        tag = self.read_name()
        if tag not in found:
            if tag in _KNOWN_ATTRS:
                raise ParseError(line, col, f"element allowed inside <{container}>, not <{tag}>")
            raise UnknownElement(line, col, tag)
        if tag == "content" and found["content"]:
            raise ParseError(line, col, "a single <content> per component")
        return tag, self.read_tag(tag, line, col)

    def read_children(self, container: str) -> dict[str, list]:
        """Read child elements up to ``</container>``, grouped by tag in document order.

        A leaf's checks depend on its tag and attributes alone, so a leaf whose
        tag and attributes (in order) match an earlier clean one reuses its
        checked values, and only its record takes its own position.
        """
        found: dict[str, list] = {tag: [] for tag in _CHILDREN[container]}
        while (child := self.read_child(container, found)) is not None:
            tag, element = child
            if tag in _CONTAINERS:
                found[tag].append(_CONTAINERS[tag](self, element))
                continue
            if not element.closed:
                raise element.error(f"self-closing <{tag} .../>")
            check, record = _LEAVES[tag]
            key = (tag, tuple(element.attrs.items()))
            values = self._leaves.get(key)
            if values is None:
                values = self._leaves[key] = check(element)
            found[tag].append(values if record is None
                              else record(*values, element.line, element.col))
        return found


def _interface(el: _Tag) -> tuple[str, Role, str, Optional[VersionTag]]:
    name = el.identifier("name", "port name")
    role = el.require("role")
    if role not in ("client", "server"):
        raise el.error(f"role client or server, not {role!r}")
    signature, version = el.typed("signature", "signature")
    return name, Role(role), signature, version


#: Each leaf's check, which gives its values from its attributes alone, and the
#: record made of those values and the leaf's position (None: the values are
#: the record).
_LEAVES = {
    "interface": (_interface, AdlInterface),
    "content": (lambda el: el.typed("class", "content class"), None),
    "file": (lambda el: el.typed("name", "file name"), None),
    "binding": (lambda el: (el.endpoint("client"), el.endpoint("server")), AdlBinding),
}


def _definition(sc: _Scanner, el: _Tag) -> AdlDefinition:
    if el.closed:
        raise el.error("paired <definition>...</definition>")
    name = el.identifier("name", "definition name")
    version = el.version()
    children = sc.read_children("definition")
    return AdlDefinition(name, version, tuple(children["interface"]),
                         tuple(children["component"]), tuple(children["binding"]))


def _component(sc: _Scanner, el: _Tag) -> AdlComponent:
    if el.closed:
        raise el.error("<component> with a <content> child")
    name = el.identifier("name", "component name")
    if name == "this":
        raise el.error("component name other than reserved 'this'")
    children = sc.read_children("component")
    if not children["content"]:
        raise el.error("<content> inside <component>")
    return AdlComponent(name, tuple(children["interface"]), children["content"][0],
                        tuple(children["file"]), el.line, el.col)


_CONTAINERS = {"definition": _definition, "component": _component}


def parse_adl(text: str) -> AdlDefinition:
    """Parse ADL text into a definition or raise a positioned AdlError."""
    definition = _Scanner(text).read_root("definition")
    definition.check_invariants()
    return definition


def parse_component_fragment(text: str) -> AdlComponent:
    """Parse a standalone ``<component>...</component>`` element."""
    return _Scanner(text).read_root("component")


def render_adl(definition: AdlDefinition) -> str:
    """Pretty-print a definition; re-parsing the output yields an equal AST."""

    def attr_ver(version: Optional[VersionTag]) -> str:
        return f' version="{version}"' if version is not None else ""

    def itf(i: AdlInterface, pad: str) -> str:
        return (f'{pad}<interface name="{i.name}" role="{i.role.value}" '
                f'signature="{i.signature}"{attr_ver(i.version)}/>')

    lines = [f'<definition name="{definition.name}" version="{definition.version}">']
    for i in definition.interfaces:
        lines.append(itf(i, "    "))
    for comp in definition.components:
        lines.append(f'    <component name="{comp.name}">')
        for i in comp.interfaces:
            lines.append(itf(i, "        "))
        cls, cver = comp.content
        lines.append(f'        <content class="{cls}"{attr_ver(cver)}/>')
        for fname, fver in comp.files:
            lines.append(f'        <file name="{fname}"{attr_ver(fver)}/>')
        lines.append("    </component>")
    for b in definition.bindings:
        lines.append(f'    <binding client="{b.client[0]}.{b.client[1]}" '
                     f'server="{b.server[0]}.{b.server[1]}"/>')
    lines.append("</definition>")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One error ``validate`` found; every diagnostic is an error."""

    code: str
    location: str
    message: str

    def render(self) -> str:
        return f"ERROR {self.code} {self.location} {self.message}"


def _diag(code: str, line: int, col: int, message: str) -> Diagnostic:
    return Diagnostic(code, f"{line}:{col}", message)


def validate(definition: AdlDefinition, corpus: CorpusStore) -> list[Diagnostic]:
    """Static checks against a corpus; an empty list means buildable.

    Diagnostics come out in document order: ports first (duplicates, signature
    resolution, interface-kindness), then component content and shared files,
    then bindings (role discipline, endpoint signature and version agreement,
    duplicate client bindings). A signature, content or file resolves only if
    its whole reference closure does, as the planner walks it. A definition
    built in code whose binding names an undeclared port raises the
    ``ParseError`` that parsing its text would.
    """
    diags: list[Diagnostic] = []

    def resolved(code: str, line: int, col: int, name: str, version: Optional[VersionTag],
                 prefix: str = "") -> Optional[TypeDef]:
        """The typedef, once its whole reference closure resolves; else a diagnostic."""
        try:
            td = corpus.resolve(name, version)
            corpus.closure_of((td.name, td.version))
            return td
        except (NotFound, AmbiguousVersion) as exc:
            diags.append(_diag(code, line, col, f"{prefix}{exc}"))
            return None

    def check_ports(owner: str, ports: tuple[AdlInterface, ...]) -> None:
        seen: set[str] = set()
        for itf in ports:
            if itf.name in seen:
                diags.append(_diag("DuplicatePort", itf.line, itf.col,
                                   f"{owner} declares port {itf.name} twice"))
            seen.add(itf.name)
            td = resolved("UnresolvableSignature", itf.line, itf.col,
                          itf.signature, itf.version, f"{owner}.{itf.name}: ")
            if td is not None and td.kind is not TypeKind.INTERFACE:
                diags.append(_diag("NotAnInterface", itf.line, itf.col,
                                   f"{owner}.{itf.name} signature {itf.signature} is a class"))

    check_ports(definition.name, definition.interfaces)
    for comp in definition.components:
        check_ports(comp.name, comp.interfaces)
        resolved("UnresolvableContent", comp.line, comp.col, *comp.content)
        for fname, fver in comp.files:
            resolved("UnresolvableFile", comp.line, comp.col, fname, fver)

    bound_clients: set[tuple[str, str]] = set()
    for b in definition.bindings:
        cport, sport = definition.port(b.client), definition.port(b.server)
        if cport is None or sport is None:
            definition.check_invariants()
        # Client attr: a child's client port, or an exported server port of 'this'.
        want_client = Role.SERVER if b.client[0] == "this" else Role.CLIENT
        want_server = Role.CLIENT if b.server[0] == "this" else Role.SERVER
        role_ok = True
        if b.client[0] == "this" and b.server[0] == "this":
            diags.append(_diag("RoleMismatch", b.line, b.col,
                               f"binding {b} connects two definition ports"))
            role_ok = False
        if cport.role is not want_client:
            diags.append(_diag("RoleMismatch", b.line, b.col,
                               f"client endpoint {b.client[0]}.{b.client[1]} must be a "
                               f"{want_client.value} port"))
            role_ok = False
        if sport.role is not want_server:
            diags.append(_diag("RoleMismatch", b.line, b.col,
                               f"server endpoint {b.server[0]}.{b.server[1]} must be a "
                               f"{want_server.value} port"))
            role_ok = False
        if not role_ok:
            continue
        if b.client in bound_clients:
            diags.append(_diag("DuplicateBinding", b.line, b.col,
                               f"client endpoint {b.client[0]}.{b.client[1]} bound twice"))
        bound_clients.add(b.client)
        try:
            ctd = corpus.resolve(cport.signature, cport.version)
            std = corpus.resolve(sport.signature, sport.version)
        except (NotFound, AmbiguousVersion):
            continue  # already reported on the port
        if ctd.name != std.name:
            diags.append(_diag("SignatureMismatch", b.line, b.col,
                               f"binding {b}: {ctd.name} vs {std.name}"))
        elif ctd.version != std.version:
            diags.append(_diag("VersionMismatch", b.line, b.col,
                               f"binding {b}: client declares {ctd.name}@{ctd.version}, "
                               f"server declares {std.name}@{std.version}"))
    return diags
