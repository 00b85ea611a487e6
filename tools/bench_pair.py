"""Benchmark a change against its parent: alternating runs, medians and a BENCH pair.

Usage, from the directory the ``BENCH_*.json`` files should land in::

    python3 tools/bench_pair.py PARENT_DIR CHANGE_DIR --workload W --seed S \\
        --seconds T --pairs N --name NAME

Both checkouts are compiled first (``python3 -m compileall -q src benchmarks``),
so neither side runs from stale bytecode. Each pair then runs
``benchmarks/run.py --workload W --seed S --seconds T --trace 0`` once in each
checkout: the parent first in pairs 1, 3, 5, ..., the change first in the
others. A run whose last line does not read ``"correct": true`` stops the
script with exit code 1, and nothing is written. Each pair's end-to-end
metrics are printed as they come, then each side's medians, then the gain
rule per metric: how many pairs the change won (a tie counts for neither),
in the ``better`` direction the parent's ``BENCHMARK.json`` gives, each
side's quartiles, and whether a gain may be claimed. It may when the change
won at least nine tenths of the pairs and its median beats the parent's by
more than the distance between the parent's quartiles.

It writes ``BENCH_<W>_<NAME>_before.json`` (the parent) and
``BENCH_<W>_<NAME>_after.json`` (the change): each is the run record that
``run.py`` left in ``.bench_out/result-<W>-trace0.json`` on the side's run
with the median ``op_p50_ms`` (the lower median when ``N`` is even). Nothing
is written under ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--name", required=True)
    return parser.parse_args(argv)


def compile_checkout(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "benchmarks"],
                   cwd=checkout, check=True)


def run_once(checkout: Path, args) -> str:
    """One ``--trace 0`` run in ``checkout``: the text of its run record, refused unless
    the run reads correct."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        correct = json.loads(lines[-1]).get("correct") is True
    except (IndexError, ValueError, AttributeError):
        correct = False
    if not correct:
        raise SystemExit(f"refused: a run in {checkout} did not read correct: true "
                         f"(exit {done.returncode})\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    result = checkout / ".bench_out" / f"result-{args.workload}-trace0.json"
    return result.read_text(encoding="utf-8")


def metrics_of(record: str) -> dict[str, float]:
    metrics = json.loads(record)["metrics"]
    return {name: metrics[name]["value"] for name in METRICS}


def show(label: str, metrics: dict[str, float]) -> str:
    return f"{label:8s} " + " ".join(f"{name}={metrics[name]:.6g}" for name in METRICS)


def directions(checkout: Path) -> dict[str, str]:
    """Each end-to-end metric's ``better`` direction, ``lower`` or ``higher``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, each within the range of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def gain_rule(name: str, better: str, before: list[float], after: list[float]) -> str:
    """One line: the pairs the change won, each side's quartiles, and whether a gain may
    be claimed."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
    ties = sum(a == b for b, a in zip(before, after))
    (b1, bm, b3), (a1, am, a3) = quartiles(before), quartiles(after)
    holds = wins >= 0.9 * len(before) and sign * (am - bm) > b3 - b1
    return (f"{name} ({better} is better): change won {wins} of {len(before)} pairs "
            f"({ties} tied); quartiles before {b1:.6g} {bm:.6g} {b3:.6g}, "
            f"after {a1:.6g} {am:.6g} {a3:.6g}; "
            + ("a gain may be claimed" if holds else "no gain may be claimed"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pairs < 1:
        raise SystemExit("--pairs must be at least 1")
    sides = {"before": args.parent, "after": args.change}
    for checkout in sides.values():
        compile_checkout(checkout)

    records: dict[str, list[str]] = {"before": [], "after": []}
    for pair in range(args.pairs):
        order = ("before", "after") if pair % 2 == 0 else ("after", "before")
        for side in order:
            records[side].append(run_once(sides[side], args))
        print(f"pair {pair + 1} ({order[0]} first)", flush=True)
        for side in ("before", "after"):
            print("  " + show(side, metrics_of(records[side][-1])))

    runs = {side: [metrics_of(r) for r in records[side]] for side in sides}
    print("medians")
    for side in ("before", "after"):
        print("  " + show(side, {name: statistics.median(m[name] for m in runs[side])
                                 for name in METRICS}))
    print("gain rule")
    better = directions(args.parent)
    for name in METRICS:
        before, after = ([m[name] for m in runs[side]] for side in ("before", "after"))
        print("  " + gain_rule(name, better[name], before, after))
    for side in ("before", "after"):
        ranked = sorted(records[side], key=lambda r: metrics_of(r)["op_p50_ms"])
        median_run = ranked[(len(ranked) - 1) // 2]
        out = Path(f"BENCH_{args.workload}_{args.name}_{side}.json")
        out.write_text(median_run, encoding="utf-8")
        print(f"  wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
