"""Versioned type-definition corpus.

A corpus is a directory of ``*.typedef`` files, each describing one versioned
code unit (a class or an interface): its name, version, the type names it
references, and the method signatures it declares or implements. The corpus is
the source that modules load type definitions from; it is immutable once
loaded, so any number of readers may share one store.

File grammar (one type per UTF-8 file, named ``<name>-<version>.typedef``)::

    name: <dotted identifier>
    version: <digits separated by dots>
    kind: interface | class
    ref: <name>[@<version>]          (zero or more)
    method: <ret> <name>(<t1>,<t2>)  (zero or more, declaration order kept)

Unknown keys are rejected. Platform types such as ``java.lang.Runnable`` and
the universal supertype ``object`` are ordinary entries carrying the reserved
version ``0``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

from .errors import AmbiguousVersion, DuplicateTypeDef, MalformedTypeDef, NotFound

_SEGMENT = r"[A-Za-z_][A-Za-z0-9_]*"
TYPE_NAME_RE = re.compile(rf"^{_SEGMENT}(\.{_SEGMENT})*$")
VERSION_RE = re.compile(r"^[0-9]+(\.[0-9]+)*$")
_METHOD_RE = re.compile(rf"^(\S+)\s+({_SEGMENT})\((.*)\)$")

#: Name of the universal supertype; receiver checks treat it specially.
OBJECT_TYPE = "object"


def is_type_name(text: str) -> bool:
    return bool(TYPE_NAME_RE.match(text))


@dataclass(frozen=True)
class VersionTag:
    """A dot-separated decimal version such as ``1.0``.

    Ordering and equality are on the integer components, with missing trailing
    components reading as zero, so ``1`` and ``1.0`` denote the same version.
    The original text is kept for display.
    """

    text: str = field(compare=False)
    key: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not VERSION_RE.match(self.text):
            raise ValueError(f"malformed version {self.text!r}")
        parts = tuple(int(p) for p in self.text.split("."))
        while len(parts) > 1 and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "key", parts)

    def __lt__(self, other: "VersionTag") -> bool:
        return self.key < other.key

    def __le__(self, other: "VersionTag") -> bool:
        return self.key <= other.key

    def __str__(self) -> str:
        return self.text


#: A resolved type, ``(name, version)``; pairs sort by name, then version.
Pair = tuple[str, VersionTag]


@dataclass(frozen=True)
class TypeRef:
    """Symbolic reference to a type, optionally pinned to a version."""

    name: str
    version: Optional[VersionTag] = None

    def __post_init__(self):
        if not is_type_name(self.name):
            raise ValueError(f"malformed type name {self.name!r}")

    def __str__(self) -> str:
        return self.name if self.version is None else f"{self.name}@{self.version}"


@dataclass(frozen=True)
class MethodSig:
    """A method signature: name, ordered parameter type names, return type.

    The return type is a type name or ``void``; parameter and return names are
    unversioned and resolve through the loading module's wiring.
    """

    name: str
    params: tuple[str, ...]
    returns: str

    def __post_init__(self):
        if not re.match(rf"^{_SEGMENT}$", self.name):
            raise ValueError(f"malformed method name {self.name!r}")
        for p in self.params:
            if not is_type_name(p):
                raise ValueError(f"malformed parameter type {p!r}")
        if self.returns != "void" and not is_type_name(self.returns):
            raise ValueError(f"malformed return type {self.returns!r}")

    def __str__(self) -> str:
        return f"{self.returns} {self.name}({','.join(self.params)})"


class TypeKind(Enum):
    INTERFACE = "interface"
    CLASS = "class"


@dataclass(frozen=True)
class TypeDef:
    """One versioned code unit as read from a ``.typedef`` file."""

    name: str
    version: VersionTag
    kind: TypeKind
    references: tuple[TypeRef, ...]
    methods: tuple[MethodSig, ...]

    def __post_init__(self):
        for ref in self.references:
            if ref.name == self.name and ref.version == self.version:
                raise ValueError(f"{self.name}@{self.version} references itself")

    def method(self, name: str) -> Optional[MethodSig]:
        for m in self.methods:
            if m.name == name:
                return m
        return None


def serialize_typedef(td: TypeDef) -> str:
    """Render a TypeDef back to the file grammar (round-trip safe)."""
    lines = [f"name: {td.name}", f"version: {td.version}", f"kind: {td.kind.value}"]
    for ref in sorted(td.references, key=lambda r: (r.name, r.version.key if r.version else ())):
        lines.append(f"ref: {ref}")
    for m in td.methods:
        lines.append(f"method: {m}")
    return "\n".join(lines) + "\n"


def typedef_filename(td: TypeDef) -> str:
    return f"{td.name}-{td.version}.typedef"


def parse_typedef(text: str, path) -> TypeDef:
    """Parse one typedef file; every deviation is a MalformedTypeDef."""
    fields: dict[str, str] = {}
    refs: list[TypeRef] = []
    methods: list[MethodSig] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise MalformedTypeDef(path, f"line {raw!r} is not 'key: value'")
        key, value = (part.strip() for part in line.split(":", 1))
        if key in ("name", "version", "kind"):
            if key in fields:
                raise MalformedTypeDef(path, f"duplicate key {key}")
            fields[key] = value
        elif key == "ref":
            refs.append(_parse_ref(value, path))
        elif key == "method":
            methods.append(_parse_method(value, path))
        else:
            raise MalformedTypeDef(path, f"unknown key {key!r}")
    for key in ("name", "version", "kind"):
        if key not in fields:
            raise MalformedTypeDef(path, f"missing key {key}")
    if not is_type_name(fields["name"]):
        raise MalformedTypeDef(path, f"malformed name {fields['name']!r}")
    try:
        version = VersionTag(fields["version"])
    except ValueError as exc:
        raise MalformedTypeDef(path, str(exc)) from exc
    try:
        kind = TypeKind(fields["kind"])
    except ValueError:
        raise MalformedTypeDef(path, f"kind must be interface or class, not {fields['kind']!r}")
    # References are a set; keep them canonically ordered so equality and
    # serialization are independent of file order. Method order is meaningful.
    unique_refs = sorted(dict.fromkeys(refs),
                         key=lambda r: (r.name, r.version.key if r.version else ()))
    try:
        return TypeDef(fields["name"], version, kind, tuple(unique_refs), tuple(methods))
    except ValueError as exc:
        raise MalformedTypeDef(path, str(exc)) from exc


def _parse_ref(value: str, path) -> TypeRef:
    name, sep, ver = value.partition("@")
    try:
        return TypeRef(name.strip(), VersionTag(ver.strip()) if sep else None)
    except ValueError as exc:
        raise MalformedTypeDef(path, f"bad ref {value!r}: {exc}") from exc


def _parse_method(value: str, path) -> MethodSig:
    m = _METHOD_RE.match(value)
    if not m:
        raise MalformedTypeDef(path, f"bad method {value!r}")
    ret, name, params_text = m.groups()
    params = tuple(p.strip() for p in params_text.split(",") if p.strip())
    try:
        return MethodSig(name, params, ret)
    except ValueError as exc:
        raise MalformedTypeDef(path, f"bad method {value!r}: {exc}") from exc


class CorpusStore:
    """Immutable index of every typedef found under a root directory."""

    def __init__(self, root: Path, index: dict[tuple[str, VersionTag], TypeDef]):
        self.root = root
        self._index = dict(index)
        self._by_name: dict[str, list[VersionTag]] = {}
        for name, version in self._index:
            self._by_name.setdefault(name, []).append(version)
        for versions in self._by_name.values():
            versions.sort()

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: Pair) -> bool:
        return key in self._index

    def entries(self) -> list[TypeDef]:
        return [self._index[k] for k in sorted(self._index)]

    def lookup(self, ref: TypeRef, chain: tuple[str, ...] = ()) -> TypeDef:
        """Resolve a reference.

        A versioned reference is an exact lookup. An unversioned one succeeds
        only when exactly one version of the name exists; there is no
        latest-wins fallback.
        """
        if ref.version is not None:
            td = self._index.get((ref.name, ref.version))
            if td is None:
                raise NotFound(ref.name, ref.version, chain)
            return td
        versions = self._by_name.get(ref.name, [])
        if not versions:
            raise NotFound(ref.name, None, chain)
        if len(versions) > 1:
            raise AmbiguousVersion(ref.name, versions, chain)
        return self._index[(ref.name, versions[0])]

    def versions(self, name: str) -> list[VersionTag]:
        """All known versions of a name, ascending; empty when unknown."""
        return list(self._by_name.get(name, []))

    def closure(self, roots: Iterable[TypeRef]) -> set[tuple[str, VersionTag]]:
        """Transitive closure over typedef references.

        Unversioned references resolve by the unique-version rule; resolution
        errors carry the reference chain that led to them. Cycles terminate
        because the result set grows monotonically.
        """
        seen: set[tuple[str, VersionTag]] = set()
        work: list[tuple[TypeRef, tuple[str, ...]]] = [(r, ()) for r in roots]
        while work:
            ref, chain = work.pop()
            td = self.lookup(ref, chain)
            key = (td.name, td.version)
            if key in seen:
                continue
            seen.add(key)
            next_chain = chain + (f"{td.name}@{td.version}",)
            for sub in sorted(td.references, key=str):
                work.append((sub, next_chain))
        return seen


def load_corpus(root) -> CorpusStore:
    """Load every ``*.typedef`` file under ``root`` into a store.

    Files are enumerated in sorted order so diagnostics are deterministic.
    A duplicate (name, version) pair across two files is a load-time error,
    as is any file whose name disagrees with its declared name/version.
    """
    root = Path(root)
    if not root.is_dir():
        raise MalformedTypeDef(root, "corpus root is not a readable directory")
    index: dict[tuple[str, VersionTag], TypeDef] = {}
    origin: dict[tuple[str, VersionTag], Path] = {}
    for path in sorted(root.rglob("*.typedef")):
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedTypeDef(path, f"not valid UTF-8: {exc}") from exc
        td = parse_typedef(text, path)
        if path.name != typedef_filename(td):
            raise MalformedTypeDef(
                path, f"file name does not match declared {td.name}-{td.version}"
            )
        key = (td.name, td.version)
        if key in index:
            raise DuplicateTypeDef(td.name, td.version, origin[key], path)
        index[key] = td
        origin[key] = path
    return CorpusStore(root, index)


def write_corpus(root, typedefs: Iterable[TypeDef]) -> None:
    """Write typedefs into ``root`` using the canonical file naming."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for td in typedefs:
        (root / typedef_filename(td)).write_text(serialize_typedef(td), encoding="utf-8")
