"""Seeded input generator for the benchmark workloads.

Every workload gets a typedef corpus, an ADL file and a one-line script,
written as plain text into a fresh directory. The same seed gives the same
bytes. The program under test sees only these files; nothing here imports it.

Next to the inputs the generator writes ``prediction.json``: the closed-form
outcome the structure implies, computed here from the generator's own type
graph rather than by the planner under test.

* ``plan``: the exact ``reconfig plan`` text (RESOURCE lines, then INFO lines),
  from the planner's precedence rules: file-declared closures first, then one
  interface module per signature, then each component's private remainder.
* ``resources`` / ``infos``: the planned module counts.
* ``bookkeeping_per_call``: context pushes + pops + receiver checks for one
  call into the entry component. Every hop enters one component and checks
  one message argument, so it is ``3 * hops``.
* ``sharing``: for each type name, the groups of components that resolve it
  to the same module. Signatures and their message classes are shared by
  every component whose ports use them; ``file``-declared classes by every
  component that references them; ``Impl<i>`` and ``H<i>`` stay private.

Why each workload exists is recorded in ``WHY`` below.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WHY = {
    "build": (
        "Corpus load, ADL parse, validate (twice on this path), plan and module "
        "creation do nearly all the work and the runtime almost none, so the "
        "superlinear validate and the per-character scanner show here and nowhere else."
    ),
    "invoke": (
        "runtime and modules.load_type do nearly all the work; adl, factory and corpus "
        "appear only in setup_s. Per-hop cost and trace growth show here, and the "
        "exchange share prices the receiver-side rejection path."
    ),
    "reconfig": (
        "swap, add and remove, binding_checks, module create/remove and corpus.closure "
        "dominate and parsing is nearly absent. Reads sit beside writes, so a call-path "
        "cache that must be invalidated on every rewire has to pay for itself here."
    ),
}

#: Default sizes; the smoke check passes smaller ones.
SIZES = {"build": 2000, "invoke": 120, "reconfig": 1000}

N_SIGS = 8
N_SHARED = 4
MAX_SEGMENT = 50
MAX_TREE_DEPTH = 60       # MAX_CALL_DEPTH is 64
MAX_FANOUT = 3
N_BROKEN = 20             # reconfig: components that also have a method-less Impl@9.0
N_FRAGMENTS = 16          # reconfig: distinct classes for add/remove fragments

V1, V2, BROKEN = "1.0", "2.0", "9.0"


@dataclass
class TypeSpec:
    name: str
    version: str
    kind: str
    refs: list[tuple[str, str]] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)

    def text(self) -> str:
        lines = [f"name: {self.name}", f"version: {self.version}", f"kind: {self.kind}"]
        lines += [f"ref: {n}@{v}" for n, v in self.refs]
        lines += [f"method: {m}" for m in self.methods]
        return "\n".join(lines) + "\n"


@dataclass
class Port:
    name: str
    role: str
    sig: str          # signature type name, always at version 1.0


@dataclass
class Comp:
    name: str
    ports: list[Port]
    content: str
    files: list[str] = field(default_factory=list)

    def port(self, name: str) -> Port:
        return next(p for p in self.ports if p.name == name)


@dataclass
class Inputs:
    """Everything a workload needs, plus the generator's own structure."""

    workload: str
    seed: int
    root: Path
    corpus: Path
    adl: Path
    script: Path
    comps: list[Comp]
    prediction: dict
    extra: dict = field(default_factory=dict)


def _sig(k: int) -> str:
    return f"Sig{k}"


def msg_type(sig: str) -> str:
    return "Msg" + sig[len("Sig"):]


class _Corpus:
    def __init__(self):
        self.types: dict[tuple[str, str], TypeSpec] = {}

    def add(self, spec: TypeSpec) -> None:
        self.types[(spec.name, spec.version)] = spec

    def add_signatures(self) -> None:
        for k in range(N_SIGS):
            msg = msg_type(_sig(k))
            self.add(TypeSpec(msg, V1, "class"))
            self.add(TypeSpec(_sig(k), V1, "interface", [(msg, V1)], [f"void call({msg})"]))
        for j in range(N_SHARED):
            self.add(TypeSpec(f"Shared{j}", V1, "class"))
        self.add(TypeSpec("object", "0", "class"))

    def impl(self, name: str, version: str, comp: Comp, helper: tuple[str, str],
             shared: list[str], with_method: bool = True) -> None:
        sigs = sorted({p.sig for p in comp.ports})
        refs = [(s, V1) for s in sigs] + [helper] + [(s, V1) for s in shared]
        server = [p for p in comp.ports if p.role == "server"]
        methods = [f"void call({msg_type(p.sig)})" for p in server[:1]] if with_method else []
        self.add(TypeSpec(name, version, "class", refs, methods))

    def write(self, root: Path) -> None:
        root.mkdir(parents=True)
        for spec in self.types.values():
            (root / f"{spec.name}-{spec.version}.typedef").write_text(spec.text(), encoding="utf-8")

    def closure(self, root: tuple[str, str]) -> set[tuple[str, str]]:
        seen: set[tuple[str, str]] = set()
        work = [root]
        while work:
            key = work.pop()
            if key not in seen:
                seen.add(key)
                work.extend(self.types[key].refs)
        return seen


def render_adl(name: str, comps: list[Comp], bindings: list[tuple[str, str]],
               exported: list[Port]) -> str:
    lines = [f'<definition name="{name}" version="1.0">']
    for p in exported:
        lines.append(f'    <interface name="{p.name}" role="{p.role}" signature="{p.sig}" '
                     f'version="1.0"/>')
    for c in comps:
        lines.append(component_xml(c, "    "))
    for client, server in bindings:
        lines.append(f'    <binding client="{client}" server="{server}"/>')
    lines.append("</definition>")
    return "\n".join(lines) + "\n"


def component_xml(c: Comp, pad: str = "", version: str = V1) -> str:
    inner = pad + "    "
    lines = [f'{pad}<component name="{c.name}">']
    for p in c.ports:
        lines.append(f'{inner}<interface name="{p.name}" role="{p.role}" signature="{p.sig}" '
                     f'version="1.0"/>')
    lines.append(f'{inner}<content class="{c.content}" version="{version}"/>')
    for f in c.files:
        lines.append(f'{inner}<file name="{f}" version="1.0"/>')
    lines.append(f"{pad}</component>")
    return "\n".join(lines)


def _pair_key(pair: tuple[str, str]):
    return (pair[0], tuple(int(x) for x in pair[1].split(".")))


def _pairs_text(pairs) -> str:
    return ", ".join(f"{n}@{v}" for n, v in sorted(pairs, key=_pair_key))


def predict(corpus: _Corpus, definition: str, comps: list[Comp], exported: list[Port],
            calls: dict[str, int]) -> dict:
    """Closed-form plan, counts and sharing from the planner's precedence rules."""
    content = {c.name: (c.content, V1) for c in comps}
    file_roots = sorted({(f, V1) for c in comps for f in c.files}, key=_pair_key)
    shared_groups: list[tuple[set, set]] = []
    for root in file_roots:
        types = corpus.closure(root)
        overlap = [g for g in shared_groups if g[1] & types]
        roots, merged = {root}, set(types)
        for g in overlap:
            roots |= g[0]
            merged |= g[1]
            shared_groups.remove(g)
        shared_groups.append((roots, merged))
    shared = set().union(*(g[1] for g in shared_groups)) if shared_groups else set()

    sigs = {(p.sig, V1) for c in comps for p in c.ports} | {(p.sig, V1) for p in exported}
    label_of: dict[tuple[str, str], str] = {}
    resources: dict[str, set] = {}
    for roots, types in shared_groups:
        label = f"shared({_pairs_text(roots).replace(', ', ',')})"
        resources[label] = types
    assigned: set = set()
    for sig in sorted(sigs, key=_pair_key):
        if sig in shared:
            continue
        exports = {sig} | (corpus.closure(sig) - shared - sigs - assigned)
        assigned |= exports
        resources[f"itf({sig[0]}@{sig[1]})"] = exports
    for label, exports in resources.items():
        for pair in exports:
            label_of[pair] = label

    infos: dict[str, tuple[set, set]] = {}
    wiring: dict[str, dict[str, str]] = {}
    for c in comps:
        closure = corpus.closure(content[c.name])
        private = closure - shared - assigned
        impl_label = f"impl({c.name}:{content[c.name][0]}@{V1})"
        if private:
            resources[impl_label] = private
        imports = closure | {(p.sig, V1) for p in c.ports}
        for f in c.files:
            imports |= corpus.closure((f, V1))
        wired = {n: (impl_label if (n, v) in private else label_of[(n, v)]) for n, v in imports}
        infos[c.name] = (imports, set(wired.values()))
        wiring[c.name] = wired
    if exported:
        imports = {(p.sig, V1) for p in exported}
        infos[definition] = (imports, {label_of[p] for p in imports})

    lines = [f"RESOURCE {label}: {_pairs_text(resources[label])}" for label in sorted(resources)]
    for comp in sorted(infos):
        imports, providers = infos[comp]
        lines.append(f"INFO {comp}: imports {_pairs_text(imports)} wired-to "
                     + ", ".join(sorted(providers)))

    sharing: dict[str, list[list[str]]] = {}
    for comp, wired in wiring.items():
        for type_name, label in wired.items():
            sharing.setdefault(type_name, {}).setdefault(label, []).append(comp)
    sharing = {t: sorted(sorted(g) for g in groups.values()) for t, groups in sharing.items()}
    return {
        "plan": "\n".join(lines) + "\n",
        "resources": len(resources),
        "infos": len(infos),
        "bookkeeping_per_call": calls,
        "sharing": sharing,
    }


def _segments(rng: random.Random, n: int) -> list[int]:
    lengths = []
    while n > 0:
        take = min(n, rng.randint(MAX_SEGMENT // 2, MAX_SEGMENT))
        lengths.append(take)
        n -= take
    return lengths


def _chain(rng: random.Random, n: int, corpus: _Corpus) -> tuple[list[Comp], list, list[list[str]]]:
    """Chain segments of at most MAX_SEGMENT hops; every Impl<i> owns a helper H<i>."""
    comps: list[Comp] = []
    bindings: list[tuple[str, str]] = []
    segments: list[list[str]] = []
    i = 0
    for length in _segments(rng, n):
        seg: list[str] = []
        in_sig = _sig(rng.randrange(N_SIGS))
        for pos in range(length):
            ports = [Port("in", "server", in_sig)]
            out_sig = None
            if pos < length - 1:
                out_sig = _sig(rng.randrange(N_SIGS))
                ports.append(Port("out", "client", out_sig))
            files: list[str] = []
            shared: list[str] = []
            roll = rng.random()
            if roll < 0.02:
                files = [f"Shared{rng.randrange(N_SHARED)}"]
                shared = list(files)
            elif roll < 0.04:
                shared = [f"Shared{rng.randrange(N_SHARED)}"]
            comp = Comp(f"c{i}", ports, f"Impl{i}", files)
            corpus.add(TypeSpec(f"H{i}", V1, "class"))
            corpus.impl(f"Impl{i}", V1, comp, (f"H{i}", V1), shared)
            comps.append(comp)
            if seg:
                bindings.append((f"{seg[-1]}.out", f"c{i}.in"))
            seg.append(comp.name)
            in_sig = out_sig
            i += 1
        segments.append(seg)
    return comps, bindings, segments


def _new_dir(parent: Path, workload: str, seed: int) -> Path:
    parent.mkdir(parents=True, exist_ok=True)
    for attempt in range(1000):
        root = parent / f"{workload}-{seed}-{attempt}"
        try:
            root.mkdir()
            return root
        except FileExistsError:
            continue
    raise RuntimeError(f"no free input directory under {parent}")


def _finish(workload: str, seed: int, root: Path, corpus: _Corpus, definition: str,
            comps: list[Comp], bindings, exported: list[Port], script: str,
            calls: dict[str, int], extra: dict) -> Inputs:
    corpus.write(root / "corpus")
    adl = root / f"{definition}.fractal.xml"
    adl.write_text(render_adl(definition, comps, bindings, exported), encoding="utf-8")
    script_path = root / "run.script"
    script_path.write_text(script, encoding="utf-8")
    prediction = predict(corpus, definition, comps, exported, calls)
    (root / "prediction.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "why": WHY[workload], **prediction},
        indent=1, sort_keys=True), encoding="utf-8")
    return Inputs(workload, seed, root, root / "corpus", adl, script_path, comps, prediction,
                  extra)


def generate_build(seed: int, parent: Path, n: int = SIZES["build"]) -> Inputs:
    rng = random.Random(f"build:{seed}")
    corpus = _Corpus()
    corpus.add_signatures()
    comps, bindings, segments = _chain(rng, n, corpus)
    head = comps[0]
    exported = [Port("head", "server", head.port("in").sig)]
    bindings = [("this.head", f"{head.name}.in")] + bindings
    script = f"invoke {head.name}.in call {msg_type(head.port('in').sig)}\nexpect-ok\n"
    calls = {"script_invoke": 3 * len(segments[0])}
    return _finish("build", seed, _new_dir(parent, "build", seed), corpus, "Build", comps,
                   bindings, exported, script, calls, {"segments": segments})


def generate_invoke(seed: int, parent: Path, n: int = SIZES["invoke"]) -> Inputs:
    """A fan-out tree of ``n`` primitives entered from ``driver``, plus two exchange pairs.

    ``xs_u -> xr_u`` exchange ``Opaque`` behind an ``object`` parameter without
    declaring it, so each side holds a private copy and the receiver must
    reject it. ``xs_f -> xr_f`` declare ``Blob`` with ``<file>``, so it is shared.
    """
    rng = random.Random(f"invoke:{seed}")
    shape = random.Random("invoke-shape")
    corpus = _Corpus()
    corpus.add_signatures()
    depth = [1]
    kids: list[list[int]] = [[]]
    for i in range(1, n):
        room = [j for j in range(max(0, i - 4), i)
                if depth[j] < MAX_TREE_DEPTH and len(kids[j]) < MAX_FANOUT]
        if not room:
            room = [j for j in range(i) if depth[j] < MAX_TREE_DEPTH and len(kids[j]) < MAX_FANOUT]
        parent_node = shape.choice(room)
        kids[parent_node].append(i)
        kids.append([])
        depth.append(depth[parent_node] + 1)
    edge_sig = [_sig(rng.randrange(N_SIGS)) for _ in range(n)]   # signature into node i
    comps: list[Comp] = []
    bindings: list[tuple[str, str]] = []
    for i in range(n):
        ports = [Port("in", "server", edge_sig[i])]
        for slot, child in enumerate(kids[i]):
            ports.append(Port(f"o{slot}", "client", edge_sig[child]))
            bindings.append((f"t{i}.o{slot}", f"t{child}.in"))
        files = [f"Shared{i % N_SHARED}"] if i % 29 == 5 else []
        comp = Comp(f"t{i}", ports, f"Impl{i}", files)
        corpus.add(TypeSpec(f"H{i}", V1, "class"))
        corpus.impl(f"Impl{i}", V1, comp, (f"H{i}", V1), files)
        comps.append(comp)

    driver = Comp("driver", [Port("out", "client", edge_sig[0])], "Driver")
    corpus.add(TypeSpec("Driver", V1, "class", [(edge_sig[0], V1)]))
    bindings.insert(0, ("driver.out", "t0.in"))
    corpus.add(TypeSpec("Push", V1, "interface", [], ["void push(object)"]))
    for cls in ("Opaque", "Blob"):
        corpus.add(TypeSpec(cls, V1, "class"))
    pairs = []
    for suffix, cls, files in (("u", "Opaque", []), ("f", "Blob", ["Blob"])):
        sender = Comp(f"xs_{suffix}", [Port("p", "client", "Push")], f"Send{suffix.upper()}", files)
        receiver = Comp(f"xr_{suffix}", [Port("p", "server", "Push")], f"Recv{suffix.upper()}",
                        files)
        corpus.add(TypeSpec(sender.content, V1, "class", [("Push", V1), (cls, V1)]))
        corpus.add(TypeSpec(receiver.content, V1, "class", [("Push", V1), (cls, V1)],
                            ["void push(object)"]))
        comps += [sender, receiver]
        bindings.append((f"{sender.name}.p", f"{receiver.name}.p"))
        pairs.append((sender.name, cls))
    comps.insert(0, driver)
    script = f"invoke driver.out call {msg_type(edge_sig[0])}\nexpect-ok\n"
    calls = {"tree": 3 * n, "exchange": 3}
    extra = {"entry_msg": msg_type(edge_sig[0]), "undeclared": pairs[0], "declared": pairs[1],
             "max_depth": max(depth)}
    return _finish("invoke", seed, _new_dir(parent, "invoke", seed), corpus, "Fanout", comps,
                   bindings, [], script, calls, extra)


def generate_reconfig(seed: int, parent: Path, n: int = SIZES["reconfig"]) -> Inputs:
    """Chain segments whose ``Impl<i>`` exist at 1.0 and 2.0; 2.0 bumps ``H<i>`` to 2.0.

    ``N_BROKEN`` components also have ``Impl<i>@9.0`` without the ``call``
    method, for swaps that must fail with MissingMethod. ``Frag<f>`` classes
    back the components that are added and then removed again.
    """
    rng = random.Random(f"reconfig:{seed}")
    corpus = _Corpus()
    corpus.add_signatures()
    comps, bindings, segments = _chain(rng, n, corpus)
    for i, comp in enumerate(comps):
        shared = [n for n, _ in corpus.types[(f"Impl{i}", V1)].refs if n.startswith("Shared")]
        corpus.add(TypeSpec(f"H{i}", V2, "class"))
        corpus.impl(f"Impl{i}", V2, comp, (f"H{i}", V2), shared)
    broken = sorted(rng.sample(range(len(comps)), min(N_BROKEN, len(comps))))
    for i in broken:
        corpus.impl(f"Impl{i}", BROKEN, comps[i], (f"H{i}", V1), [], with_method=False)
    fragments = []
    for f in range(N_FRAGMENTS):
        sig = _sig(rng.randrange(N_SIGS))
        files = [f"Shared{f % N_SHARED}"] if f % 4 == 0 else []
        frag = Comp(f"x{{n}}", [Port("in", "server", sig)], f"Frag{f}", files)
        corpus.add(TypeSpec(f"FH{f}", V1, "class"))
        corpus.impl(frag.content, V1, frag, (f"FH{f}", V1), files)
        fragments.append(frag)
    head = comps[0]
    exported = [Port("head", "server", head.port("in").sig)]
    bindings = [("this.head", f"{head.name}.in")] + bindings
    script = f"invoke {head.name}.in call {msg_type(head.port('in').sig)}\nexpect-ok\n"
    calls = {"per_hop": 3}
    extra = {"segments": segments, "broken": [comps[i].name for i in broken],
             "fragments": fragments}
    return _finish("reconfig", seed, _new_dir(parent, "reconfig", seed), corpus, "Reconf",
                   comps, bindings, exported, script, calls, extra)


GENERATORS = {"build": generate_build, "invoke": generate_invoke, "reconfig": generate_reconfig}
