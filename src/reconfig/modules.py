"""Module system: resource modules, info modules, and the manager.

The identity rule lives here: a loaded type is the pair (name, defining
module). The same name materialized by two different resource modules yields
two distinct types, which is what makes cross-module casts fail.

A resolved type is the planner's ``(name, VersionTag)`` pair; modules are
created from iterables of them. Resource modules own and cache definitions
pulled from a corpus; at most one version per name may live in a single
module, mirroring a loader's inability to hold two versions of one class.
Info modules define nothing: their import table maps each name to a
(version, provider) pair, and every load is delegated through it to exactly
one resource module. Wiring is resolved at creation time and only when each
import has a single exporter among the candidates; ambiguity is an error,
never a silent choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping, Optional, Union

from .corpus import CorpusStore, Pair, TypeDef, TypeRef, VersionTag
from .errors import (
    AmbiguousImport,
    ConflictingExports,
    ConflictingImports,
    InUse,
    InvariantViolation,
    MissingImport,
    NotImported,
    UnknownModule,
    UnresolvableExport,
)


@dataclass(frozen=True, order=True)
class ModuleId:
    """Opaque manager-assigned token; never reused within one manager."""

    seq: int

    def __str__(self) -> str:
        return f"m{self.seq}"

    def __repr__(self) -> str:
        return f"m{self.seq}"


@dataclass(frozen=True)
class DefinedType:
    """A loaded type's identity: (name, defining module).

    Equality and hashing are exactly that pair; the typedef snapshot rides
    along for inspection but does not participate in identity.
    """

    name: str
    defined_by: ModuleId
    definition: TypeDef = field(compare=False, hash=False)

    def __str__(self) -> str:
        return f"{self.name}@{self.definition.version}@{self.defined_by}"


def same_type(a: DefinedType, b: DefinedType) -> bool:
    """True iff both name and defining module agree."""
    return a.name == b.name and a.defined_by == b.defined_by


class EventKind(Enum):
    ADDED = "added"
    REMOVED = "removed"


@dataclass(frozen=True)
class ModuleEvent:
    kind: EventKind
    module_id: ModuleId


@dataclass(frozen=True)
class RemovalReport:
    removed: ModuleId
    invalidated: tuple[ModuleId, ...]


class ResourceModule:
    """Exports versioned definitions from a corpus and owns what it defines."""

    def __init__(self, module_id: ModuleId, exports: Iterable[Pair], source: CorpusStore):
        self.id = module_id
        self.source = source
        self.exports: dict[str, VersionTag] = {}
        for name, version in sorted(exports):
            if name in self.exports:
                raise ConflictingExports(name, self.exports[name], version)
            # Verified resolvable at declaration time, not lazily.
            if (name, version) not in source:
                raise UnresolvableExport(name, version)
            self.exports[name] = version
        self._defined: dict[str, DefinedType] = {}

    def exports_pair(self, name: str, version: VersionTag) -> bool:
        return self.exports.get(name) == version

    def define(self, name: str) -> DefinedType:
        """Return the cached type for ``name`` or materialize it once.

        The first call snapshots the typedef out of the source; repeated calls
        return the identical DefinedType, so identity is stable for the life
        of the module.
        """
        cached = self._defined.get(name)
        if cached is not None:
            return cached
        version = self.exports.get(name)
        if version is None:
            raise NotImported(name)
        td = self.source.lookup(TypeRef(name, version))
        dt = DefinedType(name, self.id, td)
        self._defined[name] = dt
        return dt


class InfoModule:
    """Per-component delegating module: imports, no cache, no definitions."""

    def __init__(self, module_id: ModuleId, imports: dict[str, VersionTag],
                 wiring: dict[str, ModuleId]):
        self.id = module_id
        self.imports = imports
        self.wiring = wiring


Module = Union[ResourceModule, InfoModule]


class Subscription:
    def __init__(self, manager: "ModuleManager", token: int):
        self._manager = manager
        self._token = token

    def cancel(self) -> None:
        self._manager._listeners.pop(self._token, None)


class ModuleManager:
    """Registry of live modules with ordered add/remove notifications.

    Mutations are serialized on the caller's single flow; reads of a quiescent
    manager are safe from anywhere.
    """

    def __init__(self):
        self._modules: dict[ModuleId, Module] = {}
        self._events: list[ModuleEvent] = []
        self._listeners: dict[int, Callable[[ModuleEvent], None]] = {}
        self._next_seq = 1
        self._next_token = 1

    # -- introspection ------------------------------------------------------

    @property
    def events(self) -> tuple[ModuleEvent, ...]:
        return tuple(self._events)

    def live_ids(self) -> frozenset[ModuleId]:
        return frozenset(self._modules)

    def module(self, module_id: ModuleId) -> Module:
        mod = self._modules.get(module_id)
        if mod is None:
            raise UnknownModule(module_id)
        return mod

    # Ids only increase and are never reused, so the registry is in id order.
    def resource_modules(self) -> list[ResourceModule]:
        return [m for m in self._modules.values() if isinstance(m, ResourceModule)]

    def info_modules(self) -> list[InfoModule]:
        return [m for m in self._modules.values() if isinstance(m, InfoModule)]

    # -- transitions ----------------------------------------------------------

    def _fresh_id(self) -> ModuleId:
        mid = ModuleId(self._next_seq)
        self._next_seq += 1
        return mid

    def _emit(self, kind: EventKind, module_id: ModuleId) -> None:
        event = ModuleEvent(kind, module_id)
        self._events.append(event)
        for listener in list(self._listeners.values()):
            listener(event)

    def create_resource_module(self, exports: Iterable[Pair],
                               source: CorpusStore) -> ModuleId:
        module = ResourceModule(self._fresh_id(), exports, source)
        self._modules[module.id] = module
        self._emit(EventKind.ADDED, module.id)
        return module.id

    def create_info_module(self, imports: Iterable[Pair],
                           providers: Optional[Iterable[ModuleId]] = None) -> ModuleId:
        """Create an info module, wiring each import to exactly one exporter.

        ``providers`` restricts the search to the resource modules this module
        knows; by default every live resource module is a candidate. The
        module is only created if every import resolves uniquely, so creation
        order of unrelated modules cannot change the outcome.
        """
        if providers is None:
            candidates = self.resource_modules()
        else:
            candidates = sorted(
                (self.module(pid) for pid in set(providers)), key=lambda m: m.id
            )
            for c in candidates:
                if not isinstance(c, ResourceModule):
                    raise UnknownModule(c.id)
        declared: dict[str, VersionTag] = {}
        for name, version in sorted(imports):
            if name in declared:
                raise ConflictingImports(name, declared[name], version)
            declared[name] = version
        wiring: dict[str, ModuleId] = {}
        for name, version in declared.items():
            exporters = [m for m in candidates if m.exports_pair(name, version)]
            if not exporters:
                raise MissingImport(name, version)
            if len(exporters) > 1:
                raise AmbiguousImport(name, version, [m.id for m in exporters])
            wiring[name] = exporters[0].id
        module = InfoModule(self._fresh_id(), declared, wiring)
        self._modules[module.id] = module
        self._emit(EventKind.ADDED, module.id)
        return module.id

    def load_type(self, via: ModuleId, name: str) -> DefinedType:
        """Load ``name`` through an info module's wiring.

        The wired resource module answers from its cache when the type was
        already defined, otherwise defines and caches it; either way repeated
        loads return the identical type.
        """
        info = self.module(via)
        if not isinstance(info, InfoModule):
            raise UnknownModule(via)
        provider_id = info.wiring.get(name)
        if provider_id is None:
            raise NotImported(name)
        provider = self.module(provider_id)
        if not isinstance(provider, ResourceModule):
            raise InvariantViolation(f"{via} wires {name} to {provider_id}, not a resource module")
        return provider.define(name)

    def dependents_of(self, module_id: ModuleId) -> list[ModuleId]:
        return [m.id for m in self.info_modules() if module_id in m.wiring.values()]

    def remove_module(self, module_id: ModuleId, force: bool = False) -> RemovalReport:
        """Remove a module; refuse while wired unless forced.

        Forcing invalidates dependent wirings (their entries for this module
        disappear, so later loads fail with NotImported); already-defined
        types stay valid, removal never unloads them.
        """
        self.module(module_id)
        dependents = self.dependents_of(module_id)
        if dependents and not force:
            raise InUse(module_id, dependents)
        deps = [self._modules[dep_id] for dep_id in dependents]
        if not all(isinstance(dep, InfoModule) for dep in deps):
            raise InvariantViolation(f"a dependent of {module_id} is not an info module")
        for dep in deps:
            for name in [n for n, pid in dep.wiring.items() if pid == module_id]:
                del dep.wiring[name]
        del self._modules[module_id]
        self._emit(EventKind.REMOVED, module_id)
        return RemovalReport(module_id, tuple(dependents))

    def rewire_import(self, via: ModuleId,
                      table: Mapping[str, tuple[VersionTag, ModuleId]]) -> None:
        """Replace an info module's whole import table, ``{name: (version, provider)}``.

        Used by implementation swap and its undo. Every entry is validated
        before anything changes, so the move is all or nothing.
        """
        info = self.module(via)
        if not isinstance(info, InfoModule):
            raise UnknownModule(via)
        for name, (version, provider) in table.items():
            target = self.module(provider)
            if not (isinstance(target, ResourceModule) and target.exports_pair(name, version)):
                raise UnresolvableExport(name, version)
        info.imports = {name: version for name, (version, _) in table.items()}
        info.wiring = {name: provider for name, (_, provider) in table.items()}

    def subscribe(self, listener: Callable[[ModuleEvent], None]) -> Subscription:
        token = self._next_token
        self._next_token += 1
        self._listeners[token] = listener
        return Subscription(self, token)


def replay_live_set(events: Iterable[ModuleEvent]) -> frozenset[ModuleId]:
    """Reconstruct the live-module set from an event log."""
    live: set[ModuleId] = set()
    for event in events:
        if event.kind is EventKind.ADDED:
            live.add(event.module_id)
        else:
            live.discard(event.module_id)
    return frozenset(live)
