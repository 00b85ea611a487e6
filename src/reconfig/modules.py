"""Module system: resource modules, info modules, and the manager.

The identity rule lives here: a loaded type is the pair (name, defining
module). The same name materialized by two different resource modules yields
two distinct types, which is what makes cross-module casts fail.

A resolved type is the planner's ``(name, VersionTag)`` pair; a resource
module is created from an iterable of them. Resource modules own and cache
definitions pulled from a corpus; at most one version per name may live in a
single module, mirroring a loader's inability to hold two versions of one
class. Info modules define nothing: their import table maps each name to the
one resource module that defines it, and a load is delegated through it;
the version imported is that module's export, not a second record. Like a
loader recording each class it resolved, an info module remembers each type
a load through it returned, and answers the same name again from that memo;
a refused load is not remembered, so it is refused again. The memo saves
work only on a repeated load of one name through one info module between
two rewrites of its imports: each call repeats its hops' loads, while a
build loads most names once per module. Whoever
plans an info module picks its providers: it is created from a planned
``{name: (version, provider)}`` table (build and add), and ``rewire_import``
replaces an existing one's table (swap). Both check, by one helper, that
each provider is live and exports its pair; the manager never picks a
provider itself. A module is indexed when it goes live and unindexed when
it goes, whatever its kind: a resource module's pairs in a pair → exporters
index, which ``exporters_of`` (in id order) and ``is_exported`` read and
each table is checked against, and an info module's providers in a reverse
index from each provider to the info modules wired to it, so a module's
dependents are a lookup. An info module is created already wired and keeps
its imports when it is removed, so the one rewrite of a live module's
imports is ``rewire_import``'s (and the undo's), which moves it between
providers in the reverse index and empties its memo. An index set is
sorted only where a caller asks for the list or a refusal names its
members. While an
``undo_on_error`` block is open, every write (creating, rewiring, removing)
logs its inverse in one journal, and a write made outside the manager logs
its own through ``log_undo``; a block left by any exception,
``KeyboardInterrupt`` included, runs the journal backwards. The block is a
small slotted object that the manager hands out per call, and blocks do not
nest. A resource module never changes its exports and is removed only once
nothing is wired to it, so every import names a live module that exports it,
and a remembered type is the one a fresh load would give until that rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Union

from .corpus import CorpusStore, Pair, TypeDef, VersionTag
from .errors import (
    ConflictingExports,
    InUse,
    InvariantViolation,
    NotImported,
    UnknownModule,
    UnresolvableExport,
)


class ModuleId(int):
    """Manager-assigned token, never reused within one manager; prints as ``m<n>``.

    An int, so ids hash, compare and sort as their numbers, in creation order.
    A plain int therefore equals the id of the same number; no caller passes one.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"m{int(self)}"

    __str__ = __repr__


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ModuleEvent:
    kind: EventKind
    module_id: ModuleId


class ResourceModule:
    """Exports versioned definitions from a corpus and owns what it defines."""

    __slots__ = ("id", "source", "exports", "_defined")

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
        td = self.source.resolve(name, version)
        dt = DefinedType(name, self.id, td)
        self._defined[name] = dt
        return dt


class InfoModule:
    """Per-component delegating module: each name it imports -> the module defining it.

    ``loaded`` remembers each type a load through it returned, by name, until
    its imports are rewritten.
    """

    def __init__(self, module_id: ModuleId, imports: dict[str, ModuleId]):
        self.id = module_id
        self.imports = imports  # once live, rewritten by ModuleManager._set_wiring only
        self.loaded: dict[str, DefinedType] = {}  # emptied by ModuleManager._set_wiring


Module = Union[ResourceModule, InfoModule]


class ModuleManager:
    """Registry of live modules with an ordered log of additions and removals.

    Mutations are serialized on the caller's single flow; reads of a quiescent
    manager are safe from anywhere.
    """

    def __init__(self):
        self._modules: dict[ModuleId, Module] = {}
        # Provider -> the live info modules wired to it; kept by _make_live, remove_module
        # and _set_wiring.
        self._dependents: dict[ModuleId, set[ModuleId]] = {}
        # Pair -> the live resource modules exporting it; kept by _make_live and remove_module.
        self._exporters: dict[Pair, set[ModuleId]] = {}
        self._events: list[ModuleEvent] = []
        self._next_seq = 1
        # The open undo_on_error block's inverse of each write, as (method, *args), oldest
        # first; None while no block is open.
        self._journal: Optional[list[tuple]] = None

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

    # A module put back by an undo re-enters the registry last, so these sort by id.
    def resource_modules(self) -> list[ResourceModule]:
        return [m for _, m in sorted(self._modules.items()) if isinstance(m, ResourceModule)]

    def info_modules(self) -> list[InfoModule]:
        return [m for _, m in sorted(self._modules.items()) if isinstance(m, InfoModule)]

    # -- transitions ----------------------------------------------------------

    def _fresh_id(self) -> ModuleId:
        mid = ModuleId(self._next_seq)
        self._next_seq += 1
        return mid

    def _set_wiring(self, info: InfoModule, imports: dict[str, ModuleId]) -> None:
        """The one rewrite of a live info module's imports, by ``rewire_import`` and the
        undo; keeps ``_dependents`` and the journal, and empties the module's memo."""
        if self._journal is not None:
            self._journal.append((self._set_wiring, info, info.imports))
        old, new = set(info.imports.values()), set(imports.values())
        for pid in old - new:
            entry = self._dependents[pid]
            entry.discard(info.id)
            if not entry:
                del self._dependents[pid]
        for pid in new - old:
            self._dependents.setdefault(pid, set()).add(info.id)
        info.imports = imports
        info.loaded.clear()

    def _index_of(self, module: Module) -> tuple[dict, Iterable]:
        """The index a live ``module`` is in, and its keys there: a resource module's
        pairs in ``_exporters``, an info module's providers in ``_dependents``."""
        if isinstance(module, ResourceModule):
            return self._exporters, module.exports.items()
        return self._dependents, set(module.imports.values())

    def _make_live(self, module: Module) -> None:
        """Register ``module``, index it, whatever its kind, and log ADDED: creation and
        undo alike."""
        self._modules[module.id] = module
        index, keys = self._index_of(module)
        for key in keys:
            index.setdefault(key, set()).add(module.id)
        self._events.append(ModuleEvent(EventKind.ADDED, module.id))
        if self._journal is not None:
            self._journal.append((self.remove_module, module.id))

    def undo_on_error(self) -> "_UndoBlock":
        """A block that either completes or leaves every module as it found it.

        On an exception, ``KeyboardInterrupt`` included, the journal runs
        backwards: each rewired info module gets back its imports, each
        created module is removed and each removed one is put back with its
        id (the events of both stay logged), each inverse logged with
        ``log_undo`` runs, then the exception propagates.
        Blocks do not nest: entering one while another is open raises
        ``InvariantViolation``.
        """
        return _UndoBlock(self)

    def log_undo(self, undo, *args) -> None:
        """Log ``undo(*args)``, the inverse of a write just made, to run in its turn if the
        open ``undo_on_error`` block fails; outside a block, log nothing. A write made
        outside the manager logs its inverse here."""
        if self._journal is not None:
            self._journal.append((undo, *args))

    def create_resource_module(self, exports: Iterable[Pair],
                               source: CorpusStore) -> ModuleId:
        module = ResourceModule(self._fresh_id(), exports, source)
        self._make_live(module)
        return module.id

    def create_info_module(self,
                           table: Mapping[str, tuple[VersionTag, ModuleId]]) -> ModuleId:
        """Create an info module wired to a planned ``{name: (version, provider)}`` table.

        The table is checked as ``rewire_import`` checks it, before the module
        takes an id, so a refused table creates nothing. Build and add create
        each info module this way, already wired, so its one write is making it
        live; an empty table gives an empty module.
        """
        wiring = self._checked_wiring(table)
        module = InfoModule(self._fresh_id(), wiring)
        self._make_live(module)
        return module.id

    def load_type(self, via: ModuleId, name: str) -> DefinedType:
        """Load ``name`` through an info module's imports.

        A name the info module loaded before is answered from its memo, once
        ``via`` is checked to be a live info module. Otherwise the wired
        resource module answers from its cache when the type was already
        defined, or defines and caches it, and the memo records the result;
        a refused load records nothing. Either way repeated loads return the
        identical type.
        """
        info = self._modules.get(via)
        if not isinstance(info, InfoModule):  # not live, or a resource module
            raise UnknownModule(via)
        loaded = info.loaded.get(name)
        if loaded is not None:
            return loaded
        provider_id = info.imports.get(name)
        if provider_id is None:
            raise NotImported(name)
        provider = self.module(provider_id)
        if not isinstance(provider, ResourceModule):
            raise InvariantViolation(f"{via} wires {name} to {provider_id}, not a resource module")
        loaded = info.loaded[name] = provider.define(name)
        return loaded

    def is_exported(self, pair: Pair) -> bool:
        """Whether some live resource module exports ``pair``, read off the index."""
        return pair in self._exporters  # an entry goes when its last exporter does

    def exporters_of(self, pair: Pair) -> list[ModuleId]:
        """The live resource modules exporting ``pair``, in id order, read off the index."""
        return sorted(self._exporters.get(pair, ()))

    def dependents_of(self, module_id: ModuleId) -> list[ModuleId]:
        """The info modules wired to ``module_id``, in id order, read off the reverse index."""
        return sorted(self._dependents.get(module_id, ()))

    def remove_module(self, module_id: ModuleId) -> None:
        """Remove a module that nothing is wired to; refused with ``InUse`` while one is.

        An info module keeps its imports; it only leaves the indexes. Inside an
        ``undo_on_error`` block a failure puts it back, with its id, indexed as
        it was. Already-defined types stay valid; removal never unloads them.
        """
        removed = self.module(module_id)
        dependents = self._dependents.get(module_id)
        if dependents:
            raise InUse(module_id, sorted(dependents))
        index, keys = self._index_of(removed)
        for key in keys:
            entry = index[key]
            entry.discard(module_id)
            if not entry:
                del index[key]
        del self._modules[module_id]
        self._events.append(ModuleEvent(EventKind.REMOVED, module_id))
        self.log_undo(self._make_live, removed)

    def _checked_wiring(self, table: Mapping[str, tuple[VersionTag, ModuleId]]
                        ) -> dict[str, ModuleId]:
        """The imports a planned table wires, once every entry is checked in table order.

        A provider that is not live raises ``UnknownModule``, and a live one
        that does not export the pair ``UnresolvableExport``. So each name is
        imported from its provider, whose export of it is the version given.
        """
        wiring = {}
        for name, (version, provider) in table.items():
            exporters = self._exporters.get((name, version), ())
            if provider not in exporters and provider not in self._modules:
                raise UnknownModule(provider)
            if provider not in exporters:
                raise UnresolvableExport(name, version)
            wiring[name] = provider
        return wiring

    def rewire_import(self, via: ModuleId,
                      table: Mapping[str, tuple[VersionTag, ModuleId]]) -> None:
        """Replace an info module's whole import table from ``{name: (version, provider)}``.

        Swap moves a component's existing info module this way. The table is
        checked as ``create_info_module`` checks it, before anything is
        written, so the write is all or nothing.
        """
        info = self._modules.get(via)
        if not isinstance(info, InfoModule):  # not live, or a resource module
            raise UnknownModule(via)
        self._set_wiring(info, self._checked_wiring(table))


class _UndoBlock:
    """The block ``ModuleManager.undo_on_error`` returns: entering it opens the
    manager's journal, and leaving it on an exception runs that journal backwards."""

    __slots__ = ("_mgr",)

    def __init__(self, mgr: ModuleManager):
        self._mgr = mgr

    def __enter__(self) -> None:
        mgr = self._mgr
        if mgr._journal is not None:
            raise InvariantViolation("an undo_on_error block is already open")
        mgr._journal = []

    def __exit__(self, kind, exc, traceback) -> bool:
        mgr = self._mgr
        journal, mgr._journal = mgr._journal, None  # the inverses are not journaled
        if kind is not None:
            for undo, *args in reversed(journal):
                undo(*args)
        return False  # the exception, if any, propagates


def replay_live_set(events: Iterable[ModuleEvent]) -> frozenset[ModuleId]:
    """Reconstruct the live-module set from an event log."""
    live: set[ModuleId] = set()
    for event in events:
        if event.kind is EventKind.ADDED:
            live.add(event.module_id)
        else:
            live.discard(event.module_id)
    return frozenset(live)
