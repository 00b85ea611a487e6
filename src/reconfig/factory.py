"""Planner and builder: from a validated definition to a live architecture.

Planning decides the module graph in two steps, and building, adding and
swapping all use both. Under the per-component granularity ``plan_public``
first plans the public modules for whatever is not exported yet:

* one shared module per group of ``file``-declared classes (reference closures
  that overlap are merged, so every type keeps a single defining module),
* one interface module per distinct (signature, version), exporting the
  signature together with whatever its closure drags in that is not already
  shared and not itself a declared signature.

``plan_component`` then plans one component against them: an implementation
module exporting the private remainder of the content closure, and a table
``{name: (version, provider)}`` of its content closure, declared signatures
and shared-file closure. That table is the one record of an info module's
plan: ``InfoPlan`` derives its imports and providers from it, and build, add
and swap alike turn it into module ids with ``planned_ids``. Build and add
write it by creating the info module from it (``create_info_module``), swap
by moving the existing one (``rewire_import``); both refuse a provider that
does not export its pair, and nothing resolves the table a second time. A
port's version is read off the signature the port loads through its info
module. Two components that exchange a type resolve it to one common module
precisely when the type is interface-visible or file-declared; anything else
stays a private copy per component, which is what makes undeclared exchange
fail at invocation time. Each primitive of a built architecture owns its planner input and
implementation modules; the architecture keeps the index of public modules the
runtime plans against, while which modules export a pair is the module
manager's to answer. Its links live on the ports they leave; ``bindings``,
``binding_checks()``, ``link_checks()`` and ``report()`` are views read off
them by one walk, ``model.links``, which ``link_checks()`` narrows to one
component's links, those entering it included, before it builds any label.
Each check pairs a link's label with its ``TypeMismatch``, or ``None``.

Under the single-loader granularity everything collapses into one resource
module and one info module, which forbids any coexistence of versions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .adl import AdlBinding, AdlComponent, AdlDefinition, validate
from .corpus import CorpusStore, Pair, VersionTag
from .errors import (
    InstantiationError,
    InvariantViolation,
    UnknownComponent,
    UnknownPort,
    VersionConflict,
)
from .model import (
    BindingRecord,
    ComponentInstance,
    InterfacePort,
    PortSpec,
    bind,
    check_binding,
    check_route,
    links,
    new_composite,
    new_primitive,
    route,
)
from .modules import InfoModule, ModuleId, ModuleManager, ResourceModule


class Granularity(Enum):
    SINGLE_LOADER = "single"
    PER_COMPONENT = "per-component"


def parse_granularity(text: str) -> Granularity:
    if text == "single":
        return Granularity.SINGLE_LOADER
    if text == "per-component":
        return Granularity.PER_COMPONENT
    if text == "selective":
        # Reserved: per-component opt-in selection of reloadable components.
        raise NotImplementedError("granularity 'selective' is reserved and not implemented")
    raise ValueError(f"unknown granularity {text!r}")


@dataclass(frozen=True, slots=True)
class ResourcePlan:
    label: str
    exports: tuple[Pair, ...]
    owner: Optional[str] = None    # the component an "impl(...)" module serves


@dataclass(frozen=True, slots=True)
class InfoPlan:
    component: str
    table: Mapping[str, tuple[VersionTag, ResourcePlan]]   # {name: (version, provider)}

    @property
    def imports(self) -> tuple[Pair, ...]:
        return _sorted_pairs((name, version) for name, (version, _) in self.table.items())

    @property
    def providers(self) -> tuple[str, ...]:
        return tuple(sorted({provider.label for _, provider in self.table.values()}))


@dataclass(frozen=True, slots=True)
class ModulePlan:
    granularity: Granularity
    resources: tuple[ResourcePlan, ...]
    infos: tuple[InfoPlan, ...]


def _pair_str(pair: Pair) -> str:
    return f"{pair[0]}@{pair[1]}"


def _sorted_pairs(pairs) -> tuple[Pair, ...]:
    return tuple(sorted(pairs))


def _resolve_pair(corpus: CorpusStore, name: str, version: Optional[VersionTag]) -> Pair:
    td = corpus.resolve(name, version)
    return (td.name, td.version)


def _merge_imports(into: dict[str, VersionTag], pairs, where: str) -> None:
    for name, version in pairs:
        existing = into.get(name)
        if existing is not None and existing != version:
            raise VersionConflict(name, existing, version, where)
        into[name] = version


def signature_pairs(corpus: CorpusStore, interfaces) -> list[Pair]:
    return [_resolve_pair(corpus, itf.signature, itf.version) for itf in interfaces]


def file_pairs(corpus: CorpusStore, component: AdlComponent) -> list[Pair]:
    return [_resolve_pair(corpus, name, version) for name, version in component.files]


def plan_public(roots, signatures, corpus: CorpusStore,
                public: Mapping[Pair, object]) -> list[ResourcePlan]:
    """Plan shared and interface modules for what ``public`` does not export yet.

    File roots whose reference closures overlap form one shared module, so
    every type keeps a single defining module. Each signature then gets an
    interface module exporting it together with whatever its closure drags in
    that is not shared, not itself a signature and not already assigned;
    assignment order is lexicographic, so a type referenced by two signatures
    lands in exactly one module, deterministically.
    """
    groups: list[tuple[set[Pair], set[Pair]]] = []
    for root in _sorted_pairs(set(roots)):
        types = {p for p in corpus.closure_of(root) if p not in public}
        if not types:
            continue
        merged_roots = {root}
        for g in [g for g in groups if g[1] & types]:
            merged_roots |= g[0]
            types |= g[1]
            groups.remove(g)
        groups.append((merged_roots, types))

    resources: list[ResourcePlan] = []
    shared: set[Pair] = set()
    for group_roots, types in sorted(groups, key=lambda g: _sorted_pairs(g[0])):
        label = f"shared({','.join(_pair_str(r) for r in _sorted_pairs(group_roots))})"
        resources.append(ResourcePlan(label, _sorted_pairs(types)))
        shared |= types

    sig_set = set(signatures)
    assigned: set[Pair] = set()
    for sig in _sorted_pairs(sig_set):
        if sig in shared or sig in public:
            continue  # file declarations take precedence; no separate module
        exports = {sig} | {p for p in corpus.closure_of(sig)
                           if p not in shared and p not in sig_set
                           and p not in assigned and p not in public}
        assigned |= exports
        resources.append(ResourcePlan(f"itf({_pair_str(sig)})", _sorted_pairs(exports)))
    return resources


def component_imports(component: AdlComponent, corpus: CorpusStore) -> dict[str, VersionTag]:
    """What a component's info module imports: the closures of its content and
    ``file`` declarations, and its declared signatures."""
    imports: dict[str, VersionTag] = {}
    content = _resolve_pair(corpus, *component.content)
    _merge_imports(imports, corpus.closure_of(content), component.name)
    _merge_imports(imports, signature_pairs(corpus, component.interfaces), component.name)
    for pair in file_pairs(corpus, component):
        _merge_imports(imports, corpus.closure_of(pair), component.name)
    return imports


def plan_component(component: AdlComponent, corpus: CorpusStore, public: Mapping[Pair, object]
                   ) -> tuple[Optional[ResourcePlan], dict[str, tuple[VersionTag, object]]]:
    """Plan one component against the public modules already decided.

    Returns the private implementation module (None when nothing is private)
    and each import's version and provider: ``public[pair]`` where the pair is
    public, else the implementation module. Signatures and file closures are
    always public, so the private part is the rest of the content closure.
    """
    table: dict[str, tuple[VersionTag, object]] = {}
    private = []
    for pair in component_imports(component, corpus).items():
        provider = public.get(pair)
        if provider is None:
            private.append(pair)
        table[pair[0]] = (pair[1], provider)
    if not private:
        return None, table
    content = component.content[0]
    impl = ResourcePlan(f"impl({component.name}:{content}@{table[content][0]})",
                        _sorted_pairs(private), component.name)
    for name, version in private:
        table[name] = (version, impl)
    return impl, table


def plan_modules(definition: AdlDefinition, granularity: Granularity,
                 corpus: CorpusStore) -> ModulePlan:
    """Compute the module graph for a definition that validates cleanly."""
    diags = validate(definition, corpus)
    if diags:
        raise ValueError(f"definition has {len(diags)} diagnostics; first: {diags[0].render()}")

    if granularity is Granularity.SINGLE_LOADER:
        return _plan_single(definition, corpus)

    roots = [pair for comp in definition.components for pair in file_pairs(corpus, comp)]
    sigs = signature_pairs(corpus, definition.interfaces)
    for comp in definition.components:
        sigs += signature_pairs(corpus, comp.interfaces)
    resources = plan_public(roots, sigs, corpus, {})
    public = {pair: rp for rp in resources for pair in rp.exports}

    infos: list[InfoPlan] = []
    for comp in definition.components:
        impl, table = plan_component(comp, corpus, public)
        if impl is not None:
            resources.append(impl)
        infos.append(InfoPlan(comp.name, table))

    if definition.interfaces:
        root_sigs: dict[str, VersionTag] = {}
        _merge_imports(root_sigs, signature_pairs(corpus, definition.interfaces), definition.name)
        infos.append(InfoPlan(definition.name, {n: (v, public[(n, v)])
                                                for n, v in root_sigs.items()}))

    resources.sort(key=lambda rp: rp.label)
    return ModulePlan(Granularity.PER_COMPONENT, tuple(resources), tuple(infos))


def _plan_single(definition: AdlDefinition, corpus: CorpusStore) -> ModulePlan:
    needed: dict[str, VersionTag] = {}
    for comp in definition.components:
        _merge_imports(needed, component_imports(comp, corpus).items(), comp.name)
    _merge_imports(needed, signature_pairs(corpus, definition.interfaces), definition.name)
    everything = ResourcePlan("all", _sorted_pairs(needed.items()))
    return ModulePlan(Granularity.SINGLE_LOADER, (everything,),
                      (InfoPlan(definition.name, {n: (v, everything) for n, v in needed.items()}),))


def render_plan(plan: ModulePlan) -> str:
    """Deterministic text report: RESOURCE lines then INFO lines, sorted."""
    lines = []
    for rp in sorted(plan.resources, key=lambda r: r.label):
        lines.append(f"RESOURCE {rp.label}: " + ", ".join(_pair_str(p) for p in rp.exports))
    for ip in sorted(plan.infos, key=lambda i: i.component):
        lines.append(f"INFO {ip.component}: imports "
                     + ", ".join(_pair_str(p) for p in ip.imports)
                     + " wired-to " + ", ".join(ip.providers))
    return "\n".join(lines) + "\n"


class ArchitectureInstance:
    """A built architecture: component tree and public-module index; its links live on the ports.

    ``public`` maps each pair a shared or interface module exports to that
    module. An implementation module is in its owner's ``impl_modules`` only,
    so planning against ``public`` never picks another component's copy.
    Every live resource module is one or the other, so the exporters of a
    pair not in ``public`` that ``mgr.exporters_of`` names are private copies.
    """

    def __init__(self, granularity: Granularity, mgr: ModuleManager, public: dict[Pair, ModuleId],
                 components: dict[str, ComponentInstance], root: ComponentInstance):
        self.granularity = granularity
        self.mgr = mgr
        self.public = public
        self.components = dict(components)
        self.root = root
        self.trace: list = []
        self.in_call = False
        self._seq = itertools.count()

    def next_seq(self) -> int:
        return next(self._seq)

    def component(self, name: str) -> ComponentInstance:
        inst = self.components.get(name)
        if inst is None:
            raise UnknownComponent(name)
        return inst

    def find_port(self, spec: str):
        comp_name, sep, port_name = spec.partition(".")
        if not sep:
            raise UnknownPort(spec)
        comp = self.component(comp_name)
        port = comp.port(port_name)
        if port is None:
            raise UnknownPort(comp_name, port_name) if port_name else UnknownPort(spec)
        return port

    def _links(self):
        """``links`` over every component by name and the root's routes in."""
        return links(sorted(self.components.values(), key=lambda c: c.name), [self.root])

    @property
    def bindings(self) -> list[BindingRecord]:
        """The live bindings, read off the client ports."""
        return [port.binding for kind, _, port, _ in self._links() if kind == "binding"]

    def _checks(self, walk):
        """Each link of ``walk`` as its label with its mismatch, or ``None``."""
        mgr = self.mgr
        return [(label, (check_binding if kind == "binding" else check_route)(mgr, a, b))
                for kind, label, a, b in walk]

    def binding_checks(self):
        """Each live link's label with its mismatch, or ``None``, against current modules."""
        return self._checks(self._links())

    def link_checks(self, comp: ComponentInstance):
        """Re-evaluate, like ``binding_checks()``, the links with an end at ``comp``'s ports."""
        walked = [comp, *comp.children]  # a child's route out may end at comp's client port
        return self._checks(links(walked, [*comp.parents, comp], touching=comp))

    def report(self) -> str:
        """Stable full-state dump used for before/after comparisons."""
        lines = [f"architecture {self.root.name} granularity={self.granularity.value}"]
        for name in sorted(self.components):
            comp = self.components[name]
            content = str(comp.content) if comp.content is not None else "-"
            info = str(comp.info_module) if comp.info_module is not None else "-"
            lines.append(f"component {name} kind={comp.kind.value} info={info} content={content}")
            for port in comp.interfaces:
                bound = str(port.binding.server) if port.binding is not None else "-"
                lines.append(f"  port {port.name} role={port.role.value} "
                             f"signature={port.signature}@{port.version} bound={bound}")
        links = [(kind, label) for kind, label, _, _ in self._links()]
        lines += sorted(f"{kind} {label}" for kind, label in links if kind == "binding")
        lines += [f"{kind} {label}" for kind, label in links if kind != "binding"]
        for mid in sorted(self.mgr.live_ids()):
            mod = self.mgr.module(mid)
            if isinstance(mod, ResourceModule):
                exports = ", ".join(f"{n}@{v}" for n, v in sorted(mod.exports.items()))
                lines.append(f"module {mid} resource exports=[{exports}]")
            elif isinstance(mod, InfoModule):
                table = sorted(mod.imports.items())
                imports = ", ".join(f"{n}@{self.mgr.module(p).exports[n]}" for n, p in table)
                wired = ", ".join(f"{n}->{p}" for n, p in table)
                lines.append(f"module {mid} info imports=[{imports}] wiring=[{wired}]")
            else:
                raise InvariantViolation(f"module {mid} is neither a resource nor an info module")
        return "\n".join(lines) + "\n"


def instantiate(definition: AdlDefinition, plan: ModulePlan, mgr: ModuleManager,
                corpus: CorpusStore) -> ArchitectureInstance:
    """Create modules, components, and bindings, all or nothing.

    The work runs under the manager's undo log, so an error leaves the modules
    as they were; it is re-raised wrapped with the ADL location of the step
    being built, which is spelled only then.
    """
    step = definition  # the step being built, which _location names if it fails
    try:
        with mgr.undo_on_error():
            ids: dict[str, ModuleId] = {}
            public: dict[Pair, ModuleId] = {}
            owned: dict[str, list[ModuleId]] = {}
            for step in plan.resources:
                mid = ids[step.label] = mgr.create_resource_module(step.exports, corpus)
                if step.owner is not None:
                    owned.setdefault(step.owner, []).append(mid)
                else:
                    public.update(dict.fromkeys(step.exports, mid))

            info_ids: dict[str, ModuleId] = {}
            for step in plan.infos:
                info_ids[step.component] = mgr.create_info_module(planned_ids(step.table, ids))

            single = plan.granularity is Granularity.SINGLE_LOADER
            components: dict[str, ComponentInstance] = {}
            for step in definition.components:
                owner = definition.name if single else step.name
                components[step.name] = attach_primitive(mgr, step, info_ids[owner],
                                                         owned.get(step.name, []))

            step = definition
            root = new_composite(mgr, definition.name, port_specs(definition.interfaces),
                                 [components[c.name] for c in definition.components],
                                 info_module=info_ids.get(definition.name))
            components[definition.name] = root

            for step in definition.bindings:
                _apply_binding(mgr, root, components, step)
            return ArchitectureInstance(plan.granularity, mgr, public, components, root)
    except Exception as exc:
        raise InstantiationError(_location(step), exc) from exc


def _location(step) -> str:
    """How an ``InstantiationError`` names the step of ``instantiate`` that failed."""
    if isinstance(step, ResourcePlan):
        return f"module {step.label}"
    if isinstance(step, InfoPlan):
        return f"info module {step.component}"
    if isinstance(step, AdlComponent):
        return f"component {step.name} ({step.line}:{step.col})"
    if isinstance(step, AdlBinding):
        return f"binding {step} ({step.line}:{step.col})"
    return f"definition {step.name}"


def planned_ids(table: Mapping[str, tuple[VersionTag, object]],
                ids: Mapping[str, ModuleId]) -> dict[str, tuple[VersionTag, ModuleId]]:
    """A planned table in module ids: ``ids[p.label]`` for a ``ResourcePlan`` p, else p itself."""
    return {name: (version, ids[p.label] if isinstance(p, ResourcePlan) else p)
            for name, (version, p) in table.items()}


def attach_primitive(mgr: ModuleManager, source: AdlComponent, info_id: ModuleId,
                     impl_modules: list[ModuleId]) -> ComponentInstance:
    """Create the primitive ``source`` describes over its info module, owning ``impl_modules``."""
    content = mgr.load_type(info_id, source.content[0])
    inst = new_primitive(mgr, source.name, port_specs(source.interfaces), content, info_id)
    inst.source = source
    inst.impl_modules = impl_modules
    return inst


def port_specs(interfaces) -> list[PortSpec]:
    """Each declared interface as a port; its version is read off the signature it loads."""
    return [PortSpec(itf.name, itf.role, itf.signature) for itf in interfaces]


def _apply_binding(mgr: ModuleManager, root: ComponentInstance,
                   components: dict[str, ComponentInstance], b: AdlBinding) -> None:
    client, server = ((root if comp == "this" else components[comp]).port(port)
                      for comp, port in (b.client, b.server))
    (route if "this" in (b.client[0], b.server[0]) else bind)(mgr, client, server)
