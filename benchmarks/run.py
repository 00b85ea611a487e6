"""Run one benchmark workload and print its metrics.

Usage::

    python3 benchmarks/run.py --workload {build,invoke,reconfig} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout; without it the benchmark exits with code 2 and prints no
result. Inputs are generated from ``--seed`` into ``.bench_work/`` and removed
afterwards; the run record (and, with ``--trace 1``, every span) goes to
``.bench_out/``.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``op_p50_ms``,
``op_p90_ms``, ``ops_per_s`` and ``peak_rss_mb``. ``--trace 1`` measures half
of ``--seconds`` untraced, then installs span wrappers and measures the other
half, and prints the per-layer metrics plus the tracing overhead. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. METRICS.md lists every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"
WORKLOAD_NAMES = ("build", "invoke", "reconfig")

#: Per workload, the names the figures go by in METRICS.md: (name, unit, loop key, scale).
#: p99 is printed and recorded but not bounded; its run-to-run spread is too wide.
NAMED = {
    "build": [("build_s", "s", "p50_ms", 1e-3)],
    "invoke": [("invoke_calls_per_s", "1/s", "ops_per_s", 1.0),
               ("invoke_p50_us", "us", "p50_ms", 1e3),
               ("invoke_p99_us", "us", "p99_ms", 1e3)],
    "reconfig": [("reconfig_ops_per_s", "1/s", "ops_per_s", 1.0),
                 ("reconfig_p50_ms", "ms", "p50_ms", 1.0),
                 ("reconfig_p99_ms", "ms", "p99_ms", 1.0)],
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "cpu_model": cpu, "nproc": os.cpu_count()}


def timed_loop(wl, seconds: float, tracer=None) -> dict:
    """Run ops until ``seconds`` have passed and at least ``wl.rss_after`` ops are done.

    Times are normalised by the speed gauge, traced or not. In a traced loop
    the gauge's slices also land inside spans, about 2% of the run's time.
    """
    spans: list[tuple[int, int]] = []
    failed = 0
    rss = retained = None
    gc.collect()
    deadline = time.perf_counter() + seconds
    with speed.Gauge() as gauge:
        while len(spans) < wl.rss_after or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.op_id = len(spans)
            outcome = wl.op(len(spans))
            if tracer is not None:
                tracer.op_id = -1
            spans.append((outcome.start, outcome.end))
            failed += not outcome.ok
            if len(spans) == wl.rss_after:
                rss, retained = peak_rss_mb(), wl.retained_events()
            wl.after_op(len(spans))
    raw = sorted(t1 - t0 for t0, t1 in spans)
    ordered = sorted(gauge.normalise(spans))
    return {"n": len(spans), "failed": failed, "rss": rss, "retained": retained,
            "p50_ms": percentile(ordered, 50) / 1e6, "p90_ms": percentile(ordered, 90) / 1e6,
            "p99_ms": percentile(ordered, 99) / 1e6,
            "raw_p50_ms": percentile(raw, 50) / 1e6, "raw_p99_ms": percentile(raw, 99) / 1e6,
            "beyond_p99": len(ordered) - max(1, math.ceil(0.99 * len(ordered))),
            "ops_per_s": len(ordered) / (sum(ordered) / 1e9),
            "raw_ops_per_s": len(raw) / (sum(raw) / 1e9)}


def run_untraced(wl, seconds: float) -> tuple[dict, dict]:
    setup = wl.setup_seconds()
    loop = timed_loop(wl, seconds)
    wl.static_checks()
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setup) if setup else float("nan"), "s"),
        "op_p50_ms": (loop["p50_ms"], "ms"),
        "op_p90_ms": (loop["p90_ms"], "ms"),
        "ops_per_s": (loop["ops_per_s"], "1/s"),
        "peak_rss_mb": (loop["rss"], "MB"),
    }
    return metrics, {"loop": loop, "setup_s_samples": setup}


def run_traced(wl, seconds: float, out_dir: Path) -> tuple[dict, dict]:
    import spans
    import workloads

    wl.setup()
    base = timed_loop(wl, seconds / 2)
    tracer = spans.Tracer()
    wl.tracer = tracer
    tracer.install()
    try:
        wl.setup()
        loop = timed_loop(wl, seconds / 2, tracer)
    finally:
        tracer.uninstall()
        wl.tracer = None
    peaks = spans.measure_peaks(lambda: wl.check(
        workloads.run_cli(workloads.run_argv(wl.inputs)) == (0, workloads.SCRIPT_STDOUT),
        "reconfig run under tracemalloc failed"))
    wl.static_checks()
    tracer.write(out_dir / f"spans-{wl.inputs.workload}.bin")
    metrics = layer_metrics(wl, tracer, loop, base, peaks)
    return metrics, {"loop": loop, "untraced_loop": base, "spans": len(tracer.name)}


def layer_metrics(wl, tracer, loop: dict, base: dict, peaks: dict) -> dict:
    stats = tracer.aggregate()
    n_ops = loop["n"]

    def per_op(*names):
        return sum(stats.get(n, {}).get("op_calls", 0) for n in names) / n_ops

    def mean(*names, key="total_s"):
        calls = sum(stats.get(n, {}).get("calls", 0) for n in names)
        total = sum(stats.get(n, {}).get(key, 0.0) for n in names)
        return total / calls if calls else 0.0

    parse_time = stats.get("adl.parse_adl", {}).get("total_s", 0.0)
    mgr = wl.arch.mgr if wl.arch is not None else tracer.last_mgr
    retained = loop["retained"] if wl.arch is not None else len(tracer.last_arch.trace)
    per_call = tracer.per_call or [(0, 0, 0)]
    creates = ("modules.create_resource_module", "modules.create_info_module")
    m = {
        "corpus.load_s": (mean("corpus.load_corpus"), "s"),
        "corpus.typedefs": (tracer.typedefs, "count"),
        "corpus.closure_calls": (per_op("corpus.closure"), "count"),
        "corpus.closure_s": (mean("corpus.closure"), "s"),
        "corpus.lookup_calls": (per_op("corpus.lookup"), "count"),
        "corpus.peak_mb": (peaks["corpus"], "MB"),
        "adl.parse_s": (mean("adl.parse_adl"), "s"),
        "adl.parse_bytes_per_s": (tracer.parse_bytes / parse_time if parse_time else 0.0, "B/s"),
        "adl.validate_calls": (per_op("adl.validate"), "count"),
        "adl.validate_s": (mean("adl.validate"), "s"),
        "adl.fragment_parse_s": (mean("adl.parse_component_fragment"), "s"),
        "adl.peak_mb": (peaks["adl"], "MB"),
        "factory.plan_self_s": (mean("factory.plan_modules", key="self_s"), "s"),
        "factory.instantiate_s": (mean("factory.instantiate"), "s"),
        "factory.resources": (tracer.plan_counts[0], "count"),
        "factory.infos": (tracer.plan_counts[1], "count"),
        "factory.binding_checks_calls": (per_op("factory.binding_checks"), "count"),
        "factory.binding_checks_s": (mean("factory.binding_checks"), "s"),
        "factory.peak_mb": (peaks["factory"], "MB"),
        "modules.load_type_calls": (per_op("modules.load_type"), "count"),
        "modules.load_type_s": (mean("modules.load_type"), "s"),
        "modules.define_hit_ratio": (
            tracer.define_hits / tracer.define_total if tracer.define_total else 0.0, "ratio"),
        "modules.create_calls": (per_op(*creates), "count"),
        "modules.create_s": (mean(*creates), "s"),
        "modules.remove_calls": (per_op("modules.remove_module"), "count"),
        "modules.remove_s": (mean("modules.remove_module"), "s"),
        "modules.rewire_calls": (per_op("modules.rewire_import"), "count"),
        "modules.live_modules": (len(mgr.live_ids()) if mgr is not None else 0, "count"),
        "modules.events": (len(mgr.events) if mgr is not None else 0, "count"),
        "model.check_binding_calls": (per_op("model.check_binding"), "count"),
        "model.check_binding_s": (mean("model.check_binding"), "s"),
        "model.bind_calls": (per_op("model.bind"), "count"),
        "runtime.invoke_self_s": (mean("runtime.invoke", key="self_s"), "s"),
        "runtime.hops_per_call": (statistics.median(c[0] for c in per_call), "count"),
        "runtime.checks_per_call": (statistics.median(c[1] for c in per_call), "count"),
        "runtime.bookkeeping_ops": (statistics.median(c[2] for c in per_call), "count"),
        "runtime.trace_events": (retained or 0, "count"),
        "runtime.swap_s": (mean("runtime.swap_implementation"), "s"),
        "runtime.add_s": (mean("runtime.add_component"), "s"),
        "runtime.remove_s": (mean("runtime.remove_component"), "s"),
        "runtime.rebind_s": (mean("runtime.rebind"), "s"),
        "runtime.expected_errors": (wl.expected_errors, "count"),
        "runtime.stale_private_wiring": (wl.stale_private_wiring, "count"),
        "cli.run_s": (mean("cli.main"), "s"),
        "cli.peak_mb": (peaks["cli"], "MB"),
        "trace.spans_per_op": (len(tracer.name) / n_ops, "count"),
        "trace.overhead_ms": (loop["p50_ms"] - base["p50_ms"], "ms"),
        "trace.overhead_ratio": (loop["p50_ms"] / base["p50_ms"], "ratio"),
    }
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "reconfig" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'reconfig'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import gen
    import workloads

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    inputs = gen.GENERATORS[args.workload](args.seed, root / WORK_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](inputs)
        if args.trace:
            metrics, detail = run_traced(wl, args.seconds, out_dir)
        else:
            metrics, detail = run_untraced(wl, args.seconds)
    finally:
        shutil.rmtree(inputs.root, ignore_errors=True)

    loop = detail["loop"]
    attempted = loop["n"] + detail.get("untraced_loop", {"n": 0})["n"] + wl.checks
    failed = loop["failed"] + detail.get("untraced_loop", {"failed": 0})["failed"] \
        + len(wl.problems)
    correct = failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    named = {"error_rate": (failed / attempted, "ratio"),
             "runtime.expected_errors": (wl.expected_errors, "count"),
             "runtime.stale_private_wiring": (wl.stale_private_wiring, "count")}
    if not args.trace:
        named["setup_s"] = metrics["setup_s"]
        named["peak_rss_mb"] = metrics["peak_rss_mb"]
        for name, unit, key, scale in NAMED[args.workload]:
            named[name] = (loop[key] * scale, unit)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": gen.WHY[args.workload], "machine": machine(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": wl.problems[:20],
        "samples": loop["n"], "samples_beyond_p99": loop["beyond_p99"],
        "plan_sha256": getattr(wl, "plan_sha256", None),
        "prediction": {k: inputs.prediction[k]
                       for k in ("resources", "infos", "bookkeeping_per_call")},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    for name, (value, unit) in named.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    for problem in wl.problems[:5]:
        print(f"# problem: {problem}")
    print(f"# record {json.dumps({k: record[k] for k in ('machine', 'samples', 'samples_beyond_p99', 'plan_sha256')})}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
