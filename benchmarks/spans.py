"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces the public entry points of each ``reconfig``
layer with wrappers that record a span: name, start, end, parent span and op
id. Nothing under ``src/`` is edited: a function is swapped wherever a
``reconfig`` module refers to it, a method on its class. ``uninstall()``
puts the originals back. Spans are kept in memory as flat integer arrays and
written out at the end.

A layer's self time is its span minus the time its child spans cover. The
program is single-threaded and makes no blocking calls, so no span ever waits
for another layer: "time waiting for a layer" does not apply and is not
reported.

``measure_peaks`` runs a callable under ``tracemalloc`` with lighter wrappers
around the build layers only, and reports the highest traced memory each
layer reached above what was allocated when it was entered.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
import weakref
from array import array
from pathlib import Path
from typing import Callable

from workloads import trace_counts

#: (span name, module, function or Class.method).
TARGETS = [
    ("corpus.load_corpus", "reconfig.corpus", "load_corpus"),
    ("corpus.closure", "reconfig.corpus", "CorpusStore.closure"),
    ("corpus.lookup", "reconfig.corpus", "CorpusStore.lookup"),
    ("adl.parse_adl", "reconfig.adl", "parse_adl"),
    ("adl.parse_component_fragment", "reconfig.adl", "parse_component_fragment"),
    ("adl.validate", "reconfig.adl", "validate"),
    ("factory.plan_modules", "reconfig.factory", "plan_modules"),
    ("factory.instantiate", "reconfig.factory", "instantiate"),
    ("factory.binding_checks", "reconfig.factory", "ArchitectureInstance.binding_checks"),
    ("modules.create_resource_module", "reconfig.modules", "ModuleManager.create_resource_module"),
    ("modules.create_info_module", "reconfig.modules", "ModuleManager.create_info_module"),
    ("modules.load_type", "reconfig.modules", "ModuleManager.load_type"),
    ("modules.remove_module", "reconfig.modules", "ModuleManager.remove_module"),
    ("modules.rewire_import", "reconfig.modules", "ModuleManager.rewire_import"),
    ("model.check_binding", "reconfig.model", "check_binding"),
    ("model.bind", "reconfig.model", "bind"),
    ("runtime.invoke", "reconfig.runtime", "invoke"),
    ("runtime.make_value", "reconfig.runtime", "make_value"),
    ("runtime.swap_implementation", "reconfig.runtime", "swap_implementation"),
    ("runtime.add_component", "reconfig.runtime", "add_component"),
    ("runtime.remove_component", "reconfig.runtime", "remove_component"),
    ("runtime.rebind", "reconfig.runtime", "rebind"),
    ("cli.main", "reconfig.cli", "main"),
]

#: The build layers whose tracemalloc peak is reported, by their top spans.
PEAK_TARGETS = [t for t in TARGETS if t[0] in (
    "corpus.load_corpus", "adl.parse_adl", "adl.validate", "factory.plan_modules",
    "factory.instantiate", "cli.main")]
PEAK_LAYERS = ("corpus", "adl", "factory", "cli")


def _patch(targets, make_wrapper) -> list[tuple[object, str, object]]:
    """Swap each target for its wrapper everywhere reconfig refers to it."""
    undo = []
    for span, module_name, attr in targets:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, make_wrapper(span, original))
            undo.append((cls, method, original))
            continue
        original = getattr(owner, attr)
        wrapped = make_wrapper(span, original)
        for name, module in list(sys.modules.items()):
            if name != "reconfig" and not name.startswith("reconfig."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))
    return undo


def _unpatch(undo) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


class Tracer:
    """Records spans plus the few counts that need a look at arguments or results."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1                    # -1 outside timed ops (set-up)
        self._stack = [-1]
        self._undo: list = []
        self.parse_bytes = 0
        self.typedefs = 0
        self.plan_counts = (0, 0)
        self.define_total = 0
        self.define_hits = 0
        self._defined = weakref.WeakKeyDictionary()
        self.per_call: list[tuple[int, int, int]] = []   # hops, checks, bookkeeping ops
        self.last_mgr = None
        self.last_arch = None

    # -- hooks that need arguments or results --------------------------------

    def _after(self, span: str, args, result, state) -> None:
        if span == "modules.load_type" and result is not None:
            seen = self._defined.setdefault(args[0], set())
            key = (result.defined_by, result.name)
            self.define_total += 1
            if key in seen:
                self.define_hits += 1
            else:
                seen.add(key)
        elif span == "runtime.invoke":
            self.last_arch = args[0]
            counts = trace_counts(args[0], state)
            self.per_call.append((counts["ENTER"], counts["CHECK"],
                                  counts["ENTER"] + counts["EXIT"] + counts["CHECK"]))
        elif span.startswith("modules.create_"):
            self.last_mgr = args[0]
        elif span == "corpus.load_corpus" and result is not None:
            self.typedefs = len(result)
        elif span == "factory.plan_modules" and result is not None:
            self.plan_counts = (len(result.resources), len(result.infos))

    def _before(self, span: str, args):
        if span == "runtime.invoke":
            return len(args[0].trace)
        if span == "adl.parse_adl":
            self.parse_bytes += len(args[0].encode("utf-8"))
        return None

    _HOOKED = {"modules.load_type", "runtime.invoke", "modules.create_resource_module",
               "modules.create_info_module", "corpus.load_corpus", "factory.plan_modules",
               "adl.parse_adl"}

    def _wrap(self, span: str, fn: Callable) -> Callable:
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack)
        clock = time.perf_counter_ns
        hooked = span in self._HOOKED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            state = tracer._before(span, args) if hooked else None
            result = None
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()
                if hooked:
                    tracer._after(span, args, result, state)

        return wrapper

    def install(self) -> None:
        self._undo = _patch(TARGETS, self._wrap)

    def uninstall(self) -> None:
        _unpatch(self._undo)
        self._undo = []

    # -- results ---------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: count in timed ops, count overall, total and self seconds."""
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"op_calls": 0, "calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name[i]]]
            s["calls"] += 1
            if self.op[i] >= 0:
                s["op_calls"] += 1
            s["total_s"] += dur[i] / 1e9
            s["self_s"] += (dur[i] - child[i]) / 1e9
        return stats

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then each field as a raw native array.

        ``read_spans`` reads the file back.
        """
        header = {"names": self.names, "count": len(self.name),
                  "fields": [[field, getattr(self, attr).typecode] for field, attr in SPAN_FIELDS]}
        with path.open("wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, attr in SPAN_FIELDS:
                getattr(self, attr).tofile(out)


#: On-disk field name and Tracer attribute, in file order.
SPAN_FIELDS = [("name", "name"), ("start_ns", "start"), ("end_ns", "end"),
               ("parent", "parent"), ("op", "op")]


def read_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    """Read a file written by ``Tracer.write``: the name table and one array per field."""
    with path.open("rb") as f:
        header = json.loads(f.readline())
        fields = {}
        for field, typecode in header["fields"]:
            values = array(typecode)
            values.fromfile(f, header["count"])
            fields[field] = values
    return header["names"], fields


def measure_peaks(run: Callable[[], object]) -> dict[str, float]:
    """Run ``run`` under tracemalloc; return each build layer's peak in MB."""
    peaks = {layer: 0.0 for layer in PEAK_LAYERS}
    frames: list[list] = []          # [layer, traced bytes at entry, highest seen]

    def make_wrapper(span: str, fn: Callable) -> Callable:
        layer = span.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if frames:
                frames[-1][2] = max(frames[-1][2], peak)
            tracemalloc.reset_peak()
            frame = [layer, current, current]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                frames.pop()
                highest = max(frame[2], peak)
                peaks[layer] = max(peaks[layer], (highest - frame[1]) / 2**20)
                if frames:
                    frames[-1][2] = max(frames[-1][2], highest)

        return wrapper

    undo = _patch(PEAK_TARGETS, make_wrapper)
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        _unpatch(undo)
    return peaks
