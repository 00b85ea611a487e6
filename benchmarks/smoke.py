"""Fast small-N check that the benchmark harness works.

Usage: python3 benchmarks/smoke.py   (from the root of a checkout)

It generates each workload at a small size, runs a few ops of each through
the same code as ``run.py``, traced and untraced, and checks counts and
structure against the generator's prediction: plan text, module counts,
which components share each type, bookkeeping per call, expected errors and
the span tree. It never asserts on time. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = {"build": 120, "invoke": 30, "reconfig": 60}
OPS = {"build": 2, "invoke": 40, "reconfig": 80}


def sharing_of(arch, inputs: gen.Inputs) -> dict[str, list[list[str]]]:
    """For each type name, the groups of components that resolve it to one module."""
    groups: dict[str, dict[object, list[str]]] = {}
    for comp in inputs.comps:
        info = arch.mgr.module(arch.component(comp.name).info_module)
        for name in info.imports:
            module = arch.mgr.load_type(info.id, name).defined_by
            groups.setdefault(name, {}).setdefault(module, []).append(comp.name)
    return {t: sorted(sorted(g) for g in by_module.values()) for t, by_module in groups.items()}


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def smoke_workload(name: str, work: Path, failures: list[str]) -> None:
    inputs = gen.GENERATORS[name](7, work, SMALL[name])
    try:
        again = gen.GENERATORS[name](7, work, SMALL[name])
        same = all((inputs.root / rel).read_bytes() == (again.root / rel).read_bytes()
                   for rel in ("prediction.json", inputs.adl.name, "run.script"))
        shutil.rmtree(again.root)
        check(same, f"{name}: same seed gives the same inputs", failures)

        code, out = workloads.run_cli(["plan", str(inputs.adl), "--corpus", str(inputs.corpus)])
        check(code == 0 and out == inputs.prediction["plan"], f"{name}: plan equals prediction",
              failures)
        arch, _ = workloads.build_library(inputs)
        check(sharing_of(arch, inputs) == inputs.prediction["sharing"],
              f"{name}: sharing equals prediction", failures)
        check(len(arch.mgr.live_ids()) == inputs.prediction["resources"]
              + inputs.prediction["infos"], f"{name}: live modules equal planned modules", failures)

        wl = workloads.WORKLOADS[name](inputs)
        wl.rss_after = OPS[name]
        wl.setup_reps = 1
        metrics, detail = run.run_untraced(wl, 0.01)
        check(detail["loop"]["failed"] == 0 and not wl.problems, f"{name}: untraced ops pass",
              failures)
        check(set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]},
              f"{name}: end-to-end metric names match BENCHMARK.json", failures)
        if name == "invoke":
            check(wl.expected_errors == OPS[name] // 20,
                  f"invoke: one TypeMismatch per 20 calls ({wl.expected_errors})", failures)
        if name == "reconfig":
            check(wl.expected_errors == 2 * OPS[name] // 40,
                  f"reconfig: two expected errors per 40 ops ({wl.expected_errors})", failures)

        wl = workloads.WORKLOADS[name](inputs)
        wl.rss_after = OPS[name]
        metrics, detail = run.run_traced(wl, 0.01, work)
        check(detail["loop"]["failed"] == 0 and detail["untraced_loop"]["failed"] == 0
              and not wl.problems, f"{name}: traced ops pass", failures)
        check(set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]},
              f"{name}: per-layer metric names match BENCHMARK.json", failures)
        names, fields = spans.read_spans(work / f"spans-{name}.bin")
        n = len(fields["name"])
        tree_ok = all(fields["parent"][i] < i and fields["start_ns"][i] <= fields["end_ns"][i]
                      for i in range(n))
        nested = all(fields["start_ns"][p] <= fields["start_ns"][i]
                     and fields["end_ns"][i] <= fields["end_ns"][p]
                     for i, p in enumerate(fields["parent"]) if p >= 0)
        check(n > 0 and tree_ok and nested, f"{name}: {n} spans form a nested tree", failures)
        book = inputs.prediction["bookkeeping_per_call"]
        if name == "invoke":
            check(metrics["runtime.bookkeeping_ops"][0] == book["tree"],
                  f"invoke: bookkeeping per call is 3 x {SMALL[name]}", failures)
        if name == "build":
            check(metrics["runtime.bookkeeping_ops"][0] == book["script_invoke"]
                  and metrics["adl.validate_calls"][0] == 2
                  and metrics["factory.resources"][0] == inputs.prediction["resources"],
                  "build: bookkeeping, validate calls and planned resources", failures)
        if name == "reconfig":
            check(metrics["runtime.checks_per_call"][0] * 3 == metrics["runtime.bookkeeping_ops"][0],
                  "reconfig: bookkeeping is 3 per hop", failures)
    finally:
        shutil.rmtree(inputs.root, ignore_errors=True)


def main() -> int:
    work = ROOT / run.WORK_DIR / "smoke"
    failures: list[str] = []
    try:
        for name in run.WORKLOAD_NAMES:
            smoke_workload(name, work, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
