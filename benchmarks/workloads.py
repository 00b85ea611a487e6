"""The three workloads: set-up, one timed op, and the checks on its output.

Each workload is closed-loop, single-process and single-threaded, with one
caller: the next op starts when the previous one has returned. An op's time
covers only the call into the program; every check runs after the clock has
stopped. ``op`` returns an ``Outcome``; ``ok`` is false when the op raised an
unexpected error, raised the wrong code, or failed an output check.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Calls go through module attributes so that the span wrappers see them.
from reconfig import adl, cli, corpus, factory, runtime
from reconfig.errors import ReconfigError
from reconfig.modules import ModuleManager

import gen
import speed

SCRIPT_STDOUT = "line 1: ok\nPASS all assertions hold\n"
COLD_RUN = Path(__file__).resolve().parent / "cold_run.py"


@dataclass
class Outcome:
    start: int          # perf_counter_ns around the call into the program
    end: int
    ok: bool


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_argv(inputs: gen.Inputs) -> list[str]:
    return ["run", str(inputs.adl), str(inputs.script), "--corpus", str(inputs.corpus)]


def build_library(inputs: gen.Inputs):
    """Files on disk to a live architecture, along the documented library path."""
    store = corpus.load_corpus(inputs.corpus)
    definition = adl.parse_adl(inputs.adl.read_text(encoding="utf-8"))
    diagnostics = adl.validate(definition, store)
    if diagnostics:
        raise RuntimeError(f"generated ADL does not validate: {diagnostics[0].render()}")
    plan = factory.plan_modules(definition, factory.Granularity.PER_COMPONENT, store)
    return factory.instantiate(definition, plan, ModuleManager(), store), store


def trace_counts(arch, start: int) -> dict[str, int]:
    counts = {"ENTER": 0, "EXIT": 0, "CHECK": 0, "mismatch": 0}
    for event in arch.trace[start:]:
        if event.kind in counts:
            counts[event.kind] += 1
            if event.kind == "CHECK" and event.args[-1] == "mismatch":
                counts["mismatch"] += 1
    return counts


class Workload:
    setup_reps = 3
    #: ops after which peak RSS is read, so it reflects a fixed amount of work
    rss_after = 1000
    #: every this many ops the harness empties ``arch.trace`` (outside timing)
    drain_every = 1000

    def __init__(self, inputs: gen.Inputs):
        self.inputs = inputs
        self.arch = None
        self.corpus = None
        self.expected_errors = 0
        self.stale_private_wiring = 0
        self.problems: list[str] = []
        self.checks = 0
        self.tracer = None      # set while a traced loop runs

    def check(self, ok: bool, what: str) -> None:
        """A static output check; it counts as one attempted item."""
        self.checks += 1
        if not ok:
            self.problems.append(what)

    def setup(self) -> None:
        """Build a fresh architecture from the files and warm it with one op."""
        self.arch, self.corpus = build_library(self.inputs)
        self.reset()
        self.warm_up()

    def setup_seconds(self) -> list[tuple[float, float]]:
        """Time ``setup_reps`` set-ups; (normalised, raw) seconds each."""
        times = []
        for _ in range(self.setup_reps):
            self.arch = self.corpus = None
            gc.collect()
            with speed.Gauge() as gauge:
                t0 = time.perf_counter_ns()
                self.setup()
                t1 = time.perf_counter_ns()
            times.append((gauge.seconds(t0, t1), (t1 - t0) / 1e9))
        return times

    def reset(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def after_op(self, done: int) -> None:
        if self.arch is not None and done % self.drain_every == 0:
            self.arch.trace.clear()

    def retained_events(self) -> int:
        return len(self.arch.trace) if self.arch is not None else 0

    def static_checks(self) -> None:
        code, out = run_cli(run_argv(self.inputs))
        self.check(code == 0 and out == SCRIPT_STDOUT, f"reconfig run exited {code}: {out!r}")


class BuildWorkload(Workload):
    """One op is ``reconfig run`` in-process: what a user waits for on the CLI."""

    rss_after = 3

    def setup(self) -> None:
        """Nothing to keep: every op builds from the files."""

    def setup_seconds(self) -> list[tuple[float, float]]:
        """The first, cold ``reconfig run`` of a fresh interpreter, import included.

        Each child normalises its own time with the speed gauge; returns
        (normalised, raw) seconds per rep.
        """
        times = []
        src = Path(sys.modules["reconfig"].__file__).resolve().parent.parent
        for _ in range(self.setup_reps):
            proc = subprocess.run([sys.executable, str(COLD_RUN), str(src), *run_argv(self.inputs)],
                                  capture_output=True, text=True, timeout=150)
            if proc.returncode != 0:
                self.check(False, f"cold run failed: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.check(result["code"] == 0 and result["stdout"] == SCRIPT_STDOUT,
                       f"cold run output {result['code']}: {result['stdout']!r}")
            times.append((result["seconds"], result["raw_seconds"]))
        return times

    def op(self, i: int) -> Outcome:
        argv = run_argv(self.inputs)
        buf = io.StringIO()
        # Each op stands for a separate `reconfig run` process, which would not
        # inherit the previous run's garbage; collect it outside the clock.
        gc.collect()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter_ns()
            try:
                code = cli.main(argv)
            except Exception as exc:      # any escape from main() is a failed op
                code = repr(exc)
            t1 = time.perf_counter_ns()
        return Outcome(t0, t1, code == 0 and buf.getvalue() == SCRIPT_STDOUT)

    def static_checks(self) -> None:
        code, out = run_cli(["plan", str(self.inputs.adl), "--corpus", str(self.inputs.corpus)])
        self.plan_sha256 = hashlib.sha256(out.encode("utf-8")).hexdigest()
        self.check(code == 0 and out == self.inputs.prediction["plan"],
                   "plan output differs from the generator's prediction")
        resources = sum(1 for line in out.splitlines() if line.startswith("RESOURCE "))
        infos = sum(1 for line in out.splitlines() if line.startswith("INFO "))
        self.check((resources, infos) == (self.inputs.prediction["resources"],
                                          self.inputs.prediction["infos"]),
                   f"plan has {resources} RESOURCE / {infos} INFO lines")


class InvokeWorkload(Workload):
    """Calls into a fan-out tree; every 20 calls, two exchange an ``object`` argument."""

    setup_reps = 5  # a set-up takes about 0.05 s

    def reset(self) -> None:
        x = self.inputs.extra
        self.tree_calls = self.inputs.prediction["bookkeeping_per_call"]["tree"]
        self.calls = {
            "tree": ("driver", "out", "call", self.arch.component("driver"), x["entry_msg"]),
            "undeclared": (x["undeclared"][0], "p", "push",
                           self.arch.component(x["undeclared"][0]), x["undeclared"][1]),
            "declared": (x["declared"][0], "p", "push",
                         self.arch.component(x["declared"][0]), x["declared"][1]),
        }

    def warm_up(self) -> None:
        self.op(0)
        self.arch.trace.clear()

    @staticmethod
    def kind(i: int) -> str:
        slot = i % 20
        return "undeclared" if slot == 7 else "declared" if slot == 17 else "tree"

    def op(self, i: int) -> Outcome:
        kind = self.kind(i)
        comp_name, port, method, owner, arg_type = self.calls[kind]
        arch = self.arch
        start = len(arch.trace)
        code = None
        result = None
        t0 = time.perf_counter_ns()
        try:
            value = runtime.make_value(arch, owner, arg_type)
            result = runtime.invoke(arch, comp_name, port, method, [value])
        except ReconfigError as exc:
            code = exc.code
        t1 = time.perf_counter_ns()
        counts = trace_counts(arch, start)
        ops = counts["ENTER"] + counts["EXIT"] + counts["CHECK"]
        if kind == "tree":
            ok = code is None and result is None and ops == self.tree_calls \
                and counts["mismatch"] == 0
        else:
            want = "TypeMismatch" if kind == "undeclared" else None
            ok = code == want and ops == 3 and counts["mismatch"] == (want is not None)
            if ok and want is not None:
                self.expected_errors += 1
        return Outcome(t0, t1, ok)

    def static_checks(self) -> None:
        super().static_checks()
        self.check(self.inputs.extra["max_depth"] <= gen.MAX_TREE_DEPTH, "tree too deep")


class ReconfigWorkload(Workload):
    """Reconfiguration writes with a small share of reads, in shuffled blocks of 40.

    Swaps are 60% of the ops, so the median lands inside one op class and not
    on the boundary between two.
    """

    #: one block: unit kinds and how many of each; add_remove takes two slots
    BLOCK = {"swap": 24, "add_remove": 4, "rebind": 3, "invoke": 3, "bad_swap": 1,
             "bad_remove": 1}

    def reset(self) -> None:
        inputs = self.inputs
        self.rng = random.Random(f"reconfig-ops:{inputs.seed}")
        self.queue: list[tuple] = []
        self.fragment_seq = 0
        comps = inputs.comps
        self.index = {c.name: i for i, c in enumerate(comps)}
        self.version = ["1.0"] * len(comps)
        self.target: dict[int, int] = {}
        self.rebind_options: dict[int, list[int]] = {}
        for seg in inputs.extra["segments"]:
            idx = [self.index[name] for name in seg]
            for pos, i in enumerate(idx[:-1]):
                self.target[i] = idx[pos + 1]
                out_sig = comps[i].port("out").sig
                self.rebind_options[i] = [m for m in idx[pos + 1:]
                                          if comps[m].port("in").sig == out_sig]
        self.linked = sorted(self.target)
        self.heads = [self.index[seg[0]] for seg in inputs.extra["segments"]]
        self.broken = [self.index[name] for name in inputs.extra["broken"]]

    def warm_up(self) -> None:
        outcome = self._invoke(self.heads[0])
        if not outcome.ok:
            raise RuntimeError("warm-up invoke failed")

    def _next(self) -> tuple:
        if not self.queue:
            units = [kind for kind, count in self.BLOCK.items() for _ in range(count)]
            self.rng.shuffle(units)
            for kind in units:
                if kind == "add_remove":
                    name = f"x{self.fragment_seq}"
                    self.fragment_seq += 1
                    frag = self.rng.choice(self.inputs.extra["fragments"])
                    self.queue += [("add", name, frag), ("remove", name)]
                else:
                    self.queue.append((kind,))
        return self.queue.pop(0)

    def op(self, i: int) -> Outcome:
        step = self._next()
        kind = step[0]
        rng = self.rng
        if kind == "swap":
            return self._swap(rng.randrange(len(self.version)))
        if kind == "add":
            return self._add(step[1], step[2])
        if kind == "remove":
            return self._timed(lambda: runtime.remove_component(self.arch, step[1]),
                               lambda: step[1] not in self.arch.components)
        if kind == "rebind":
            return self._rebind(rng.choice(self.linked))
        if kind == "invoke":
            return self._invoke(rng.choice(self.heads))
        if kind == "bad_swap":
            i = rng.choice(self.broken)
            return self._must_fail(lambda: runtime.swap_implementation(
                self.arch, f"c{i}", (f"Impl{i}", gen.BROKEN), self.corpus), "MissingMethod")
        name = f"c{rng.choice(self.linked)}"
        return self._must_fail(lambda: runtime.remove_component(self.arch, name),
                               "CrossBindingExists")

    def _timed(self, call, check) -> Outcome:
        t0 = time.perf_counter_ns()
        try:
            call()
            ok = True
        except ReconfigError:
            ok = False
        t1 = time.perf_counter_ns()
        return Outcome(t0, t1, ok and check())

    def _swap(self, i: int) -> Outcome:
        want = "2.0" if self.version[i] == "1.0" else "1.0"
        name = f"c{i}"
        t0 = time.perf_counter_ns()
        try:
            record = runtime.swap_implementation(self.arch, name, (f"Impl{i}", want), self.corpus)
        except ReconfigError:
            record = None
        t1 = time.perf_counter_ns()
        if record is None:
            return Outcome(t0, t1, False)
        if self.tracer is not None:
            self.tracer.op_id = -1      # the check below is not part of the op
        comp = self.arch.component(name)
        ok = (comp.content is record.new_content and record.new_content.name == f"Impl{i}"
              and str(record.new_content.definition.version) == want)
        helper = runtime.make_value(self.arch, comp, f"H{i}")
        if helper.rt_type.defined_by != record.new_module:
            self.stale_private_wiring += 1
        self.version[i] = want
        return Outcome(t0, t1, ok)

    def _add(self, name: str, frag: gen.Comp) -> Outcome:
        text = gen.component_xml(gen.Comp(name, frag.ports, frag.content, frag.files))
        return self._timed(
            lambda: runtime.add_component(self.arch, adl.parse_component_fragment(text), self.corpus),
            lambda: self.arch.component(name).content.name == frag.content)

    def _rebind(self, i: int) -> Outcome:
        options = [m for m in self.rebind_options[i] if m != self.target[i]] \
            or self.rebind_options[i]
        m = self.rng.choice(options)
        outcome = self._timed(lambda: runtime.rebind(self.arch, f"c{i}.out", f"c{m}.in"),
                              lambda: self.arch.find_port(f"c{i}.out").binding.server
                              is self.arch.find_port(f"c{m}.in"))
        if outcome.ok:
            self.target[i] = m
        return outcome

    def _invoke(self, head: int) -> Outcome:
        hops, node = 1, head
        while node in self.target:
            node = self.target[node]
            hops += 1
        comp = self.arch.component(f"c{head}")
        msg = gen.msg_type(comp.port("in").signature)
        start = len(self.arch.trace)
        t0 = time.perf_counter_ns()
        try:
            value = runtime.make_value(self.arch, comp, msg)
            result = runtime.invoke(self.arch, comp.name, "in", "call", [value])
            ok = result is None
        except ReconfigError:
            ok = False
        t1 = time.perf_counter_ns()
        counts = trace_counts(self.arch, start)
        ok = ok and counts["ENTER"] + counts["EXIT"] + counts["CHECK"] == \
            self.inputs.prediction["bookkeeping_per_call"]["per_hop"] * hops
        return Outcome(t0, t1, ok)

    def _must_fail(self, call, code: str) -> Outcome:
        before = self.arch.report()
        t0 = time.perf_counter_ns()
        try:
            call()
            got = "ok"
        except ReconfigError as exc:
            got = exc.code
        t1 = time.perf_counter_ns()
        ok = got == code and self.arch.report() == before
        if ok:
            self.expected_errors += 1
        return Outcome(t0, t1, ok)


WORKLOADS = {"build": BuildWorkload, "invoke": InvokeWorkload, "reconfig": ReconfigWorkload}
