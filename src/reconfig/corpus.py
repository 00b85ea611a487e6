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

A type is resolved once, as a JVM resolves a (name, loader) pair once.
``VersionTag`` is the tuple of its version's numbers, interned one instance
per version text, so a resolved ``(name, VersionTag)`` pair is cheap to build
and hashes, compares and sorts as a plain tuple, in C; a tag also equals the
plain tuple of its numbers. A versioned reference resolves by one read of the
store's index, which already holds one entry per pair, so nothing else records
it. The store memoizes only the closure of each single root (``closure_of``):
the store never changes once loaded, so that memo can never go stale or need
invalidating, and it holds at most one entry per typedef. Failed walks are
never memoized.

Inputs repeat themselves, and each distinct declaration is read once per
input: one ``load_corpus`` parses each distinct ``ref:`` and ``method:`` value
once, and its typedefs share the frozen ``TypeRef`` and ``MethodSig``. Nothing
read outlives the call, so a second load reads everything again. A closure
walk keeps, for each pair it reaches, the pair that reached it first, and
spells the ``name@version`` chain from those links only when a lookup fails.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Iterable, Optional

from .errors import AmbiguousVersion, DuplicateTypeDef, MalformedTypeDef, NotFound

_SEGMENT = r"[A-Za-z_][A-Za-z0-9_]*"
TYPE_NAME_RE = re.compile(rf"^{_SEGMENT}(\.{_SEGMENT})*$")
VERSION_RE = re.compile(r"^[0-9]+(\.[0-9]+)*$")
_METHOD_RE = re.compile(rf"^(\S+)\s+({_SEGMENT})\((.*)\)$")
_METHOD_NAME_RE = re.compile(rf"^{_SEGMENT}$")

#: Name of the universal supertype; receiver checks treat it specially.
OBJECT_TYPE = "object"


def is_type_name(text: str) -> bool:
    return bool(TYPE_NAME_RE.match(text))


class VersionTag(tuple):
    """A dot-separated decimal version such as ``1.0``.

    A tag is the tuple of its integer components with trailing zeros dropped,
    so ``1`` and ``1.0`` are the same version, and tags hash, compare and sort
    as that tuple, in C. A tag therefore also equals the plain tuple of its
    numbers (``VersionTag("1") == (1,)``); no caller mixes the two. The
    original text is kept for display: ``str``, ``format`` and ``repr`` print
    it, but ``%`` formatting would take a tag for its argument tuple, so the
    package never uses ``%`` on strings.

    Tags are interned: ``VersionTag(text)`` hands out one shared, immutable
    instance per text, validated once; ``copy``, ``deepcopy`` and ``pickle``
    hand it back. A malformed text raises ``ValueError`` on every call and is
    never kept. Equal tags of different texts (``1`` and ``1.0``) stay
    distinct instances. The intern table stops growing at ``_INTERN_LIMIT``
    texts; past it, tags are still correct, only not shared.
    """

    _interned: dict[str, "VersionTag"] = {}
    _INTERN_LIMIT = 4096

    def __new__(cls, text: str) -> "VersionTag":
        tag = cls._interned.get(text)
        if tag is not None:
            return tag
        if not VERSION_RE.match(text):
            raise ValueError(f"malformed version {text!r}")
        parts = [int(p) for p in text.split(".")]
        while len(parts) > 1 and parts[-1] == 0:
            parts.pop()
        tag = tuple.__new__(cls, parts)
        object.__setattr__(tag, "text", text)
        if len(cls._interned) < cls._INTERN_LIMIT:
            cls._interned[text] = tag
        return tag

    @property
    def key(self) -> tuple[int, ...]:
        """The integer components as a plain tuple."""
        return tuple(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"VersionTag is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"VersionTag is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return VersionTag, (self.text,)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"VersionTag(text={self.text!r}, key={self.key!r})"


#: A resolved type, ``(name, version)``; pairs sort by name, then version.
Pair = tuple[str, VersionTag]


@dataclass(frozen=True, slots=True)
class TypeRef:
    """Symbolic reference to a type, optionally pinned to a version."""

    name: str
    version: Optional[VersionTag] = None

    def __post_init__(self):
        if not is_type_name(self.name):
            raise ValueError(f"malformed type name {self.name!r}")

    def __str__(self) -> str:
        return self.name if self.version is None else f"{self.name}@{self.version}"


@dataclass(frozen=True, slots=True)
class MethodSig:
    """A method signature: name, ordered parameter type names, return type.

    The return type is a type name or ``void``; parameter and return names are
    unversioned and resolve through the loading module's wiring.
    """

    name: str
    params: tuple[str, ...]
    returns: str

    def __post_init__(self):
        if not _METHOD_NAME_RE.match(self.name):
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


_KINDS = {kind.value: kind for kind in TypeKind}


@dataclass(frozen=True, slots=True)
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
    for ref in sorted(td.references, key=lambda r: (r.name, r.version or ())):
        lines.append(f"ref: {ref}")
    for m in td.methods:
        lines.append(f"method: {m}")
    return "\n".join(lines) + "\n"


def typedef_filename(td: TypeDef) -> str:
    return f"{td.name}-{td.version.text}.typedef"


def parse_typedef(text: str, path) -> TypeDef:
    """Parse one typedef file; every deviation is a MalformedTypeDef."""
    return _parse_typedef(text, path, {}, {})


def _parse_typedef(text: str, path, refs_read: dict[str, TypeRef],
                   methods_read: dict[str, MethodSig]) -> TypeDef:
    """``parse_typedef``, where a ``ref:`` or ``method:`` value already in
    ``refs_read`` or ``methods_read`` is not parsed again, and each new one that
    parses is added. Both records are frozen, so files may share them; a value
    that does not parse is never added and raises, naming ``path``, every time."""
    fields: dict[str, str] = {}
    refs: list[TypeRef] = []
    methods: list[MethodSig] = []
    for raw in text.splitlines():
        key, colon, value = raw.partition(":")
        key = key.strip()
        if not colon:
            if not key:
                continue
            raise MalformedTypeDef(path, f"line {raw!r} is not 'key: value'")
        value = value.strip()
        if key in ("name", "version", "kind"):
            if key in fields:
                raise MalformedTypeDef(path, f"duplicate key {key}")
            fields[key] = value
        elif key == "ref":
            ref = refs_read.get(value)
            if ref is None:
                ref = refs_read[value] = _parse_ref(value, path)
            refs.append(ref)
        elif key == "method":
            method = methods_read.get(value)
            if method is None:
                method = methods_read[value] = _parse_method(value, path)
            methods.append(method)
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
    kind = _KINDS.get(fields["kind"])
    if kind is None:
        raise MalformedTypeDef(path, f"kind must be interface or class, not {fields['kind']!r}")
    # References are a set; keep them canonically ordered so equality and
    # serialization are independent of file order. Method order is meaningful.
    unique_refs = sorted(dict.fromkeys(refs), key=lambda r: (r.name, r.version or ()))
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
    """Immutable index of every typedef found under a root directory.

    ``resolve`` reads a versioned pair straight off the index and looks up
    only the rest (an unversioned name, or a pair the store lacks). The
    closure of each single root (``closure_of``) is computed once and
    memoized, at most one entry per pair in the store; the index never
    changes after construction, so the memo can never go stale and needs no
    invalidation. A lookup or walk that fails is not memoized, so it raises
    the same error, with the same chain, on every call.
    """

    def __init__(self, root: Path, index: dict[tuple[str, VersionTag], TypeDef]):
        self.root = root
        self._index = dict(index)
        self._closures: dict[Pair, tuple[Pair, ...]] = {}
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

    def resolve(self, name: str, version: Optional[VersionTag] = None) -> TypeDef:
        """``lookup(TypeRef(name, version))``; a versioned pair in the index is read off it."""
        td = self._index.get((name, version))
        if td is None:
            td = self.lookup(TypeRef(name, version))
        return td

    def versions(self, name: str) -> list[VersionTag]:
        """All known versions of a name, ascending; empty when unknown."""
        return list(self._by_name.get(name, []))

    def closure_of(self, root: Pair) -> tuple[Pair, ...]:
        """``closure([TypeRef(*root)])`` in sorted order, walked once per root."""
        cached = self._closures.get(root)
        if cached is None:
            cached = tuple(sorted(self.closure([TypeRef(*root)])))
            self._closures[root] = cached
        return cached

    def closure(self, roots: Iterable[TypeRef]) -> set[tuple[str, VersionTag]]:
        """Transitive closure over typedef references.

        Unversioned references resolve by the unique-version rule; resolution
        errors carry the reference chain that led to them. Cycles terminate
        because the result set grows monotonically.

        The walk pops references depth first. Each pair reached links to the
        pair whose reference reached it on its first pop (``None`` for a root),
        and a failed lookup spells its chain from those links: the ``name@version``
        of each pair from the root down to the one whose reference failed.
        """
        # Each pair reached -> the pair whose reference first reached it (None
        # for a root). The chain is spelled from these links only on failure.
        reached: dict[Pair, Optional[Pair]] = {}
        work: list[tuple[TypeRef, Optional[Pair]]] = [(r, None) for r in roots]
        index = self._index
        while work:
            ref, via = work.pop()
            # A versioned reference is found in the index; no key has a None version.
            td = index.get((ref.name, ref.version))
            if td is None:
                try:
                    td = self.lookup(ref)
                except NotFound as exc:
                    raise NotFound(exc.name, exc.version, _chain(via, reached)) from None
                except AmbiguousVersion as exc:
                    raise AmbiguousVersion(exc.name, exc.versions,
                                           _chain(via, reached)) from None
            key = (td.name, td.version)
            if key not in reached:
                reached[key] = via
                work.extend(zip(td.references, repeat(key)))
        return set(reached)


def _chain(pair: Optional[Pair], reached: dict[Pair, Optional[Pair]]) -> tuple[str, ...]:
    """``name@version`` of each pair from a root down to ``pair``, following
    ``reached`` from each pair to the pair that first reached it."""
    chain = []
    while pair is not None:
        chain.append(f"{pair[0]}@{pair[1]}")
        pair = reached[pair]
    return tuple(reversed(chain))


def _typedef_files(root: Path) -> list[tuple[tuple[str, ...], str]]:
    """``(relative parts, path text)`` of every ``*.typedef`` entry under ``root``,
    in ``Path`` order: the entries ``root.rglob("*.typedef")`` lists."""
    top = str(root)
    found = []
    pending = [((), "" if top == "." else os.path.join(top, ""))]
    while pending:
        parts, prefix = pending.pop()
        try:
            with os.scandir(prefix or ".") as listing:
                entries = list(listing)
        except PermissionError:
            continue
        for entry in entries:
            name = entry.name
            if name.endswith(".typedef"):
                found.append((parts + (name,), prefix + name))
            if entry.is_dir(follow_symlinks=False):
                pending.append((parts + (name,), prefix + name + os.sep))
    found.sort()
    return found


#: ``os.read``'s request size. Typedef files are a few hundred bytes; a larger
#: request costs a larger allocation per file, and peak memory with it.
_READ_SIZE = 4096


def _read_bytes(path: str) -> bytes:
    """The bytes of the file at ``path``: ``os.open``, ``os.read`` until end of
    file and ``os.close``. A failure raises the ``OSError`` that
    ``open(path, "rb")`` would: its class, errno, message and file name."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    return b"".join(chunks)


def load_corpus(root) -> CorpusStore:
    """Load every ``*.typedef`` file under ``root`` into a store.

    The listing keeps ``Path.rglob("*.typedef")``'s rules: every entry whose
    name ends in ``.typedef`` (case-sensitively, dotfiles and directories
    included) is read; directories are descended into, but never through a
    symlink; a subdirectory whose listing raises ``PermissionError`` is
    skipped. Files are read in ``Path`` order, so diagnostics are
    deterministic: paths compare component by component (``a/x`` before
    ``a-b/x``, although ``-`` sorts before ``/`` in a string). Each file is
    read with OS-level calls, and an entry that cannot be read (a directory
    named ``d.typedef``, a dangling symlink) raises the ``OSError`` that
    ``open`` would, naming its path as a string. A duplicate
    (name, version) pair across two files is a load-time error naming the
    earlier file first, as is any file whose name disagrees with its declared
    name/version. Every error names its file(s) as a ``Path``.

    Each distinct ``ref:`` and ``method:`` value is parsed once per call, on
    the first file that gives it, and later files share its record; a value
    that does not parse raises on the first file that gives it, as before.
    """
    root = Path(root)
    if not root.is_dir():
        raise MalformedTypeDef(root, "corpus root is not a readable directory")
    index: dict[tuple[str, VersionTag], TypeDef] = {}
    origin: dict[tuple[str, VersionTag], str] = {}
    refs_read: dict[str, TypeRef] = {}
    methods_read: dict[str, MethodSig] = {}
    for parts, path in _typedef_files(root):
        try:
            td = _parse_typedef(_read_bytes(path).decode("utf-8"), path, refs_read, methods_read)
        except UnicodeDecodeError as exc:
            raise MalformedTypeDef(Path(path), f"not valid UTF-8: {exc}") from exc
        except MalformedTypeDef as exc:
            raise MalformedTypeDef(Path(path), exc.reason) from exc.__cause__
        if parts[-1] != typedef_filename(td):
            raise MalformedTypeDef(
                Path(path), f"file name does not match declared {td.name}-{td.version}"
            )
        key = (td.name, td.version)
        if key in index:
            raise DuplicateTypeDef(td.name, td.version, Path(origin[key]), Path(path))
        index[key] = td
        origin[key] = path
    return CorpusStore(root, index)


def write_corpus(root, typedefs: Iterable[TypeDef]) -> None:
    """Write typedefs into ``root`` using the canonical file naming."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for td in typedefs:
        (root / typedef_filename(td)).write_text(serialize_typedef(td), encoding="utf-8")
