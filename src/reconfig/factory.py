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
module exporting the private remainder of the content closure, and imports of
its content closure, its declared signatures, and the shared-file closure,
wired to exactly those modules. Two components that exchange a type resolve it
to one common module precisely when the type is interface-visible or
file-declared; anything else stays a private copy per component, which is
what makes undeclared exchange fail at invocation time. Each primitive of a
built architecture owns its planner input and implementation modules; the
architecture keeps the index of public modules the runtime plans against. Its
links live on the ports; ``bindings``, ``binding_checks()`` and ``report()``
are views read off them by one walk, ``model.links``.

Under the single-loader granularity everything collapses into one resource
module and one info module, which forbids any coexistence of versions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .adl import AdlBinding, AdlComponent, AdlDefinition, validate
from .corpus import CorpusStore, Pair, TypeRef, VersionTag
from .errors import (
    AmbiguousImport,
    InstantiationError,
    InvariantViolation,
    UnknownComponent,
    UnknownPort,
    VersionConflict,
)
from .model import (
    BindingRecord,
    ComponentInstance,
    PortSpec,
    bind,
    check_binding,
    check_route,
    links,
    new_composite,
    new_primitive,
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


@dataclass(frozen=True)
class ResourcePlan:
    label: str
    exports: tuple[Pair, ...]
    kind: str                      # "shared", "itf" or "impl"
    owner: Optional[str] = None    # the component an "impl" module serves


@dataclass(frozen=True)
class InfoPlan:
    component: str
    imports: tuple[Pair, ...]
    providers: tuple[str, ...]


@dataclass(frozen=True)
class ModulePlan:
    granularity: Granularity
    resources: tuple[ResourcePlan, ...]
    infos: tuple[InfoPlan, ...]
    wiring: dict[tuple[str, str], str]      # (component, type name) -> module label


def _pair_str(pair: Pair) -> str:
    return f"{pair[0]}@{pair[1]}"


def _sorted_pairs(pairs) -> tuple[Pair, ...]:
    return tuple(sorted(pairs))


def _resolve_pair(corpus: CorpusStore, name: str, version: Optional[VersionTag]) -> Pair:
    td = corpus.lookup(TypeRef(name, version))
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
        types = {p for p in corpus.closure([TypeRef(*root)]) if p not in public}
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
        resources.append(ResourcePlan(label, _sorted_pairs(types), "shared"))
        shared |= types

    sig_set = set(signatures)
    assigned: set[Pair] = set()
    for sig in _sorted_pairs(sig_set):
        if sig in shared or sig in public:
            continue  # file declarations take precedence; no separate module
        exports = {sig} | {p for p in corpus.closure([TypeRef(*sig)])
                           if p not in shared and p not in sig_set
                           and p not in assigned and p not in public}
        assigned |= exports
        resources.append(ResourcePlan(f"itf({_pair_str(sig)})", _sorted_pairs(exports), "itf"))
    return resources


def component_imports(component: AdlComponent, corpus: CorpusStore) -> dict[str, VersionTag]:
    """What a component's info module imports: the closures of its content and
    ``file`` declarations, and its declared signatures."""
    imports: dict[str, VersionTag] = {}
    content = _resolve_pair(corpus, *component.content)
    _merge_imports(imports, corpus.closure([TypeRef(*content)]), component.name)
    _merge_imports(imports, signature_pairs(corpus, component.interfaces), component.name)
    for pair in file_pairs(corpus, component):
        _merge_imports(imports, corpus.closure([TypeRef(*pair)]), component.name)
    return imports


def plan_component(component: AdlComponent, corpus: CorpusStore, public: Mapping[Pair, object]
                   ) -> tuple[Optional[ResourcePlan], dict[str, tuple[VersionTag, object]]]:
    """Plan one component against the public modules already decided.

    Returns the private implementation module (None when nothing is private)
    and each import's version and provider: ``public[pair]`` where the pair is
    public, else the implementation module. Signatures and file closures are
    always public, so the private part is the rest of the content closure.
    """
    imports = component_imports(component, corpus)
    private = _sorted_pairs(p for p in imports.items() if p not in public)
    impl = None
    if private:
        content = component.content[0]
        impl = ResourcePlan(f"impl({component.name}:{content}@{imports[content]})",
                            private, "impl", component.name)
    return impl, {name: (version, public.get((name, version), impl))
                  for name, version in imports.items()}


def _info_plan(owner: str, imports: dict[str, tuple[VersionTag, ResourcePlan]],
               wiring: dict[tuple[str, str], str]) -> InfoPlan:
    for name, (_, provider) in imports.items():
        wiring[(owner, name)] = provider.label
    return InfoPlan(owner, _sorted_pairs((n, v) for n, (v, _) in imports.items()),
                    tuple(sorted({provider.label for _, provider in imports.values()})))


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
    wiring: dict[tuple[str, str], str] = {}
    for comp in definition.components:
        impl, imports = plan_component(comp, corpus, public)
        if impl is not None:
            resources.append(impl)
        infos.append(_info_plan(comp.name, imports, wiring))

    if definition.interfaces:
        root_sigs: dict[str, VersionTag] = {}
        _merge_imports(root_sigs, signature_pairs(corpus, definition.interfaces), definition.name)
        infos.append(_info_plan(definition.name, {n: (v, public[(n, v)])
                                                  for n, v in root_sigs.items()}, wiring))

    resources.sort(key=lambda rp: rp.label)
    return ModulePlan(Granularity.PER_COMPONENT, tuple(resources), tuple(infos), wiring)


def _plan_single(definition: AdlDefinition, corpus: CorpusStore) -> ModulePlan:
    needed: dict[str, VersionTag] = {}
    for comp in definition.components:
        _merge_imports(needed, component_imports(comp, corpus).items(), comp.name)
    _merge_imports(needed, signature_pairs(corpus, definition.interfaces), definition.name)
    pairs = _sorted_pairs(needed.items())
    owners = [c.name for c in definition.components] + [definition.name]
    return ModulePlan(Granularity.SINGLE_LOADER, (ResourcePlan("all", pairs, "shared"),),
                      (InfoPlan(definition.name, pairs, ("all",)),),
                      {(owner, name): "all" for owner in owners for name, _ in pairs})


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

    def refuse_private(self, pairs: set[Pair]) -> None:
        """Raise ``AmbiguousImport`` if implementation modules hold one of ``pairs``.

        Making such a pair public would leave its holders on private copies, a
        sharing relation no one-step plan gives; the holders are the candidates.
        """
        if not pairs:
            return
        held = [(pair, mid) for comp in self.components.values() for mid in comp.impl_modules
                for pair in pairs.intersection(self.mgr.module(mid).exports.items())]
        if held:
            first = _sorted_pairs(pair for pair, _ in held)[0]
            raise AmbiguousImport(*first, sorted(mid for pair, mid in held if pair == first))

    def find_port(self, spec: str):
        comp_name, sep, port_name = spec.partition(".")
        if not sep:
            raise UnknownPort(spec, "")
        comp = self.component(comp_name)
        port = comp.port(port_name)
        if port is None:
            raise UnknownPort(comp_name, port_name)
        return port

    def _links(self):
        """``links`` over every component by name and the root's export routes."""
        return links(sorted(self.components.values(), key=lambda c: c.name), [self.root])

    @property
    def bindings(self) -> list[BindingRecord]:
        """The live bindings, read off the client ports."""
        return [port.binding for kind, _, port, _ in self._links() if kind == "binding"]

    def binding_checks(self):
        """Re-evaluate every live binding and route against current modules."""
        return [(label, (check_binding if kind == "binding" else check_route)(self.mgr, a, b))
                for kind, label, a, b in self._links()]

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
                imports = ", ".join(f"{n}@{v}" for n, v in sorted(mod.imports.items()))
                wired = ", ".join(f"{n}->{mod.wiring[n]}" for n in sorted(mod.wiring))
                lines.append(f"module {mid} info imports=[{imports}] wiring=[{wired}]")
            else:
                raise InvariantViolation(f"module {mid} is neither a resource nor an info module")
        return "\n".join(lines) + "\n"


def instantiate(definition: AdlDefinition, plan: ModulePlan, mgr: ModuleManager,
                corpus: CorpusStore) -> ArchitectureInstance:
    """Create modules, components, and bindings; roll back cleanly on failure.

    Any error unwinds every module this call created (forced removal in
    reverse creation order), so the manager's live set returns to its
    pre-call state, and is re-raised wrapped with the ADL location.
    """
    created: list[ModuleId] = []
    location = f"definition {definition.name}"
    try:
        public: dict[Pair, ModuleId] = {}
        owned: dict[str, list[ModuleId]] = {}
        label_ids: dict[str, ModuleId] = {}
        for rp in plan.resources:
            location = f"module {rp.label}"
            mid = mgr.create_resource_module(rp.exports, corpus)
            created.append(mid)
            label_ids[rp.label] = mid
            if rp.kind == "impl":
                owned.setdefault(rp.owner, []).append(mid)
            else:
                public.update(dict.fromkeys(rp.exports, mid))

        info_ids: dict[str, ModuleId] = {}
        for ip in plan.infos:
            location = f"info module {ip.component}"
            mid = mgr.create_info_module(
                ip.imports, providers=[label_ids[label] for label in ip.providers])
            created.append(mid)
            for name, pid in mgr.module(mid).wiring.items():
                planned = plan.wiring[(ip.component, name)]
                if label_ids[planned] != pid:
                    raise InvariantViolation(
                        f"{ip.component} resolves {name} to {pid}, the plan to {planned}")
            info_ids[ip.component] = mid

        single = plan.granularity is Granularity.SINGLE_LOADER
        components: dict[str, ComponentInstance] = {}
        for comp in definition.components:
            location = f"component {comp.name} ({comp.line}:{comp.col})"
            info_id = info_ids[definition.name] if single else info_ids[comp.name]
            components[comp.name] = attach_primitive(mgr, corpus, comp, info_id,
                                                     owned.get(comp.name, []))

        location = f"definition {definition.name}"
        root_info = info_ids.get(definition.name)
        root = new_composite(mgr, definition.name, port_specs(corpus, definition.interfaces),
                             [components[c.name] for c in definition.components],
                             info_module=root_info)
        components[definition.name] = root

        for b in definition.bindings:
            location = f"binding {b} ({b.line}:{b.col})"
            _apply_binding(mgr, root, components, b)
        return ArchitectureInstance(plan.granularity, mgr, public, components, root)
    except Exception as exc:
        for mid in reversed(created):
            mgr.remove_module(mid, force=True)
        if isinstance(exc, InstantiationError):
            raise
        raise InstantiationError(location, exc) from exc


def attach_primitive(mgr: ModuleManager, corpus: CorpusStore, source: AdlComponent,
                     info_id: ModuleId, impl_modules: list[ModuleId]) -> ComponentInstance:
    """Create the primitive ``source`` describes over its info module, owning ``impl_modules``."""
    content = mgr.load_type(info_id, source.content[0])
    inst = new_primitive(mgr, source.name, port_specs(corpus, source.interfaces), content, info_id)
    inst.source = source
    inst.impl_modules = impl_modules
    return inst


def port_specs(corpus: CorpusStore, interfaces) -> list[PortSpec]:
    return [PortSpec(itf.name, itf.role, *pair)
            for itf, pair in zip(interfaces, signature_pairs(corpus, interfaces))]


def _apply_binding(mgr: ModuleManager, root: ComponentInstance,
                   components: dict[str, ComponentInstance], b: AdlBinding) -> None:
    if b.client[0] == "this":
        outer = root.port(b.client[1])
        inner = components[b.server[0]].port(b.server[1])
        result = check_route(mgr, outer, inner)
        if not result.ok:
            raise result.mismatch
        root.export_routes[outer.name] = inner
    elif b.server[0] == "this":
        child_port = components[b.client[0]].port(b.client[1])
        outer = root.port(b.server[1])
        result = check_route(mgr, child_port, outer)
        if not result.ok:
            raise result.mismatch
        child_port.outbound_route = outer
    else:
        client = components[b.client[0]].port(b.client[1])
        server = components[b.server[0]].port(b.server[1])
        bind(mgr, client, server)
