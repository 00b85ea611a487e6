"""Command-line front end.

``reconfig check``  validates an ADL file against a corpus.
``reconfig plan``   prints the module plan for a chosen granularity.
``reconfig run``    builds the architecture and executes a script.
``reconfig bench``  reports interceptor bookkeeping for no-op calls.

The corpus directory comes from ``--corpus`` or the ``RECONFIG_CORPUS``
environment variable. Exit codes: 0 success, 1 diagnostics or failed
assertions, 2 I/O, parse, or setup errors. Output for check/plan/run is
byte-deterministic for identical inputs; bench timings are not.

``plan``, ``run`` and ``bench`` share one set-up path, ``_load_and_plan``:
load, granularity, validate, plan. ``plan`` prints the diagnostics or
``ERROR VersionConflict …`` and exits 1; ``run`` and ``bench`` turn both into
``error: …`` and exit 2. ``plan_modules`` validates the definition a second
time on its own, on purpose for now: the benchmark smoke test pins two
``validate`` calls per build, and one call waits for a change to it.

Set-up (read, parse, corpus load, validate, plan and instantiate) runs with
the cyclic collector paused: it builds a large, long-lived object graph and
frees next to nothing, so automatic collections during it are pure cost.
When set-up ends, what it built is frozen, so the collections that the
script, the bench loop and the output start with the collector back on never
walk it; ``main`` unfreezes it on every exit path. The caller's collector
state and freeze count are restored on every exit path, since ``main`` may
run inside a longer-lived process. The collector is named in this module
alone.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from .adl import parse_adl, validate
from .corpus import load_corpus
from .errors import ReconfigError, VersionConflict
from .factory import instantiate, parse_granularity, plan_modules, render_plan
from .modules import ModuleManager
from .runtime import bench_interception, serialize_trace
from .script import parse_script, run_script


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reconfig",
        description="Versioned component architectures with reconfigurable implementations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("adl", help="architecture description file (.fractal.xml)")
        p.add_argument("--corpus", default=None,
                       help="typedef corpus directory (default: $RECONFIG_CORPUS)")

    p_check = sub.add_parser("check", help="parse and validate an ADL file")
    common(p_check)

    p_plan = sub.add_parser("plan", help="print the module plan")
    common(p_plan)
    p_plan.add_argument("--granularity", default="per-component",
                        choices=["single", "per-component", "selective"])

    p_run = sub.add_parser("run", help="instantiate and execute a script")
    common(p_run)
    p_run.add_argument("script", help="script file")
    p_run.add_argument("--granularity", default="per-component",
                       choices=["single", "per-component", "selective"])
    p_run.add_argument("--trace", default=None, help="write the event trace to this file")

    p_bench = sub.add_parser("bench", help="interception micro-benchmark")
    common(p_bench)
    p_bench.add_argument("n", type=int, help="number of no-op invocations")
    return parser


# I/O, parse and setup errors, shared by every command: each exits 2 with ``error: …``.
# A file that is not UTF-8 raises UnicodeDecodeError, a ValueError.
SETUP_ERRORS = (NotImplementedError, OSError, ValueError, ReconfigError)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


@contextmanager
def _collector_paused():
    """Disable the cyclic collector; re-enable it on exit only if it was on.

    When the caller's collector is on and nothing is frozen yet, every object
    tracked on exit (what set-up built) is frozen before the collector comes
    back on. The freeze also parks the caller's own objects until ``main``'s
    unfreeze returns them, with everything set-up built, to the oldest
    generation. A caller that froze objects of its own, or that has the
    collector off, gets no freeze.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if gc.get_freeze_count() == 0:
                gc.freeze()
            gc.enable()


def _load_inputs(args):
    corpus_path = args.corpus or os.environ.get("RECONFIG_CORPUS")
    if not corpus_path:
        raise OSError("no corpus given (use --corpus or RECONFIG_CORPUS)")
    text = Path(args.adl).read_text(encoding="utf-8")
    definition = parse_adl(text)
    corpus = load_corpus(corpus_path)
    return definition, corpus


def cmd_check(args) -> int:
    with _collector_paused():
        try:
            definition, corpus = _load_inputs(args)
        except SETUP_ERRORS as exc:
            return _fail(str(exc))
        diagnostics = validate(definition, corpus)
    for diag in diagnostics:
        print(diag.render())
    return 1 if diagnostics else 0


def _load_and_plan(args):
    """Load, pick the granularity, validate and plan: the set-up of ``plan``,
    ``run`` and ``bench``. Returns the definition, the corpus, the diagnostics,
    and the plan, which is ``None`` when there are diagnostics."""
    definition, corpus = _load_inputs(args)
    granularity = parse_granularity(getattr(args, "granularity", "per-component"))
    diagnostics = validate(definition, corpus)
    plan = None if diagnostics else plan_modules(definition, granularity, corpus)
    return definition, corpus, diagnostics, plan


def cmd_plan(args) -> int:
    with _collector_paused():
        try:
            _, _, diagnostics, plan = _load_and_plan(args)
        except VersionConflict as exc:
            print(f"ERROR VersionConflict {exc}")
            return 1
        except SETUP_ERRORS as exc:
            return _fail(str(exc))
    for diag in diagnostics:
        print(diag.render())
    if diagnostics:
        return 1
    print(render_plan(plan), end="")
    return 0


def _build(args):
    with _collector_paused():
        definition, corpus, diagnostics, plan = _load_and_plan(args)
        if diagnostics:
            raise ReconfigError("; ".join(d.render() for d in diagnostics))
        return instantiate(definition, plan, ModuleManager(), corpus), corpus


def cmd_run(args) -> int:
    try:
        arch, corpus = _build(args)
        commands = parse_script(Path(args.script).read_text(encoding="utf-8"))
    except SETUP_ERRORS as exc:
        return _fail(str(exc))
    result = run_script(arch, corpus, commands)
    for line in result.output:
        print(line)
    if args.trace:
        try:
            Path(args.trace).write_text(serialize_trace(arch), encoding="utf-8")
        except SETUP_ERRORS as exc:
            return _fail(str(exc))
    if not result.ok:
        print(f"FAIL {result.failure}")
        return 1
    print("PASS all assertions hold")
    return 0


def cmd_bench(args) -> int:
    try:
        arch, _ = _build(args)
        report = bench_interception(arch, args.n)
    except SETUP_ERRORS as exc:
        return _fail(str(exc))
    print(report.render())
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"check": cmd_check, "plan": cmd_plan, "run": cmd_run, "bench": cmd_bench}
    # Only a command that starts with nothing frozen can freeze (``_collector_paused``).
    thaw = gc.get_freeze_count() == 0
    try:
        return handler[args.command](args)
    finally:
        if thaw:
            gc.unfreeze()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
