"""``tools/bench_pair.py`` on two fake checkouts whose ``benchmarks/run.py`` prints canned
run records: the order of the runs, the refusal of an incorrect run, the median pick and
the gain rule."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"

# A stand-in for benchmarks/run.py: the k-th call in a checkout logs its arguments,
# leaves the k-th canned record in .bench_out/ and prints its summary line last.
FAKE_RUN = '''
import json, sys
from pathlib import Path
root = Path(__file__).resolve().parent.parent
count = root / "count"
k = int(count.read_text()) if count.exists() else 0
count.write_text(str(k + 1))
with open(root.parent / "order.log", "a") as log:
    log.write(root.name + " " + " ".join(sys.argv[1:]) + "\\n")
record = json.loads((root / "canned.json").read_text())[k]
(root / ".bench_out").mkdir(exist_ok=True)
(root / ".bench_out" / "result-reconfig-trace0.json").write_text(json.dumps(record))
print("# reconfig op_p50_ms = ...")
print(json.dumps({"correct": record["correct"], "metrics": record["metrics"]}))
'''


BETTER = {"setup_s": "lower", "op_p50_ms": "lower", "op_p90_ms": "lower",
          "ops_per_s": "higher", "peak_rss_mb": "lower"}


def _record(run: str, p50: float, correct: bool = True, setup: float = 0.1) -> dict:
    metrics = {name: {"unit": "-", "value": value} for name, value in
               (("setup_s", setup), ("op_p50_ms", p50), ("op_p90_ms", 2 * p50),
                ("ops_per_s", 1 / p50), ("peak_rss_mb", 30.0))}
    return {"run": run, "correct": correct, "metrics": metrics}


def _checkout(base: Path, name: str, records: list[dict]) -> Path:
    root = base / name
    (root / "benchmarks").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": metric, "better": better} for metric, better in BETTER.items()]}))
    (root / "src" / "program.py").write_text("VALUE = 1\n")
    (root / "benchmarks" / "run.py").write_text(FAKE_RUN)
    (root / "canned.json").write_text(json.dumps(records))
    return root


def _run_tool(base: Path, pairs: int):
    out = base / "out"
    out.mkdir()
    done = subprocess.run([sys.executable, str(TOOL), str(base / "parent"), str(base / "change"),
                           "--workload", "reconfig", "--seed", "7", "--seconds", "0.5",
                           "--pairs", str(pairs), "--name", "demo"],
                          cwd=out, capture_output=True, text=True, timeout=120)
    return done, out


def test_runs_alternate_and_the_median_run_of_each_side_is_kept(tmp_path):
    _checkout(tmp_path, "parent", [_record(f"p{k}", p50) for k, p50 in enumerate((3.0, 1.0, 2.0))])
    _checkout(tmp_path, "change", [_record(f"c{k}", p50) for k, p50 in enumerate((5.0, 4.0, 6.0))])
    done, out = _run_tool(tmp_path, 3)
    assert done.returncode == 0, done.stdout + done.stderr
    log = (tmp_path / "order.log").read_text().splitlines()
    assert [line.split()[0] for line in log] == ["parent", "change", "change", "parent",
                                                 "parent", "change"]
    assert {line.partition(" ")[2] for line in log} == {
        "--workload reconfig --seed 7 --seconds 0.5 --trace 0"}
    # both checkouts were compiled before any run
    assert list((tmp_path / "parent" / "src" / "__pycache__").glob("program.*.pyc"))
    assert list((tmp_path / "change" / "src" / "__pycache__").glob("program.*.pyc"))
    before = json.loads((out / "BENCH_reconfig_demo_before.json").read_text())
    after = json.loads((out / "BENCH_reconfig_demo_after.json").read_text())
    assert (before["run"], after["run"]) == ("p2", "c0")   # op_p50 2.0 of 1, 2, 3; 5.0 of 4, 5, 6
    medians = done.stdout.split("medians\n")[1].splitlines()
    assert "op_p50_ms=2 " in medians[0] and "op_p50_ms=5 " in medians[1]
    assert not list((tmp_path / "parent" / "benchmarks").glob("BENCH_*"))


def test_an_even_number_of_runs_keeps_the_lower_median(tmp_path):
    _checkout(tmp_path, "parent", [_record(f"p{k}", p50) for k, p50 in enumerate((4.0, 1.0))])
    _checkout(tmp_path, "change", [_record(f"c{k}", p50) for k, p50 in enumerate((2.0, 3.0))])
    done, out = _run_tool(tmp_path, 2)
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads((out / "BENCH_reconfig_demo_before.json").read_text())["run"] == "p1"
    assert json.loads((out / "BENCH_reconfig_demo_after.json").read_text())["run"] == "c0"


def test_a_run_that_is_not_correct_is_refused_and_nothing_is_written(tmp_path):
    _checkout(tmp_path, "parent", [_record("p0", 1.0), _record("p1", 1.0)])
    _checkout(tmp_path, "change", [_record("c0", 1.0), _record("c1", 1.0, correct=False)])
    done, out = _run_tool(tmp_path, 2)
    assert done.returncode == 1
    assert "did not read correct: true" in done.stderr
    assert list(out.iterdir()) == []


def _gain_lines(stdout: str) -> dict[str, str]:
    lines = stdout.split("gain rule\n")[1].splitlines()
    return {line.split()[0]: line for line in lines[:len(BETTER)]}


def test_the_gain_rule_counts_won_pairs_and_weighs_the_median_gap_against_the_parent_spread(
        tmp_path):
    parent_p50 = [2.0, 2.2, 1.8, 2.1, 1.9, 2.0, 2.2, 1.8, 2.1, 1.9]
    change_p50 = [1.0, 1.1, 0.9, 2.1, 1.0, 1.1, 0.9, 1.0, 1.2, 0.95]  # the 4th pair ties
    setups = [0.10 + 0.01 * k for k in range(10)]  # the change wins each pair by a hair
    _checkout(tmp_path, "parent", [_record(f"p{k}", p50, setup=setup)
                                   for k, (p50, setup) in enumerate(zip(parent_p50, setups))])
    _checkout(tmp_path, "change", [_record(f"c{k}", p50, setup=setup - 0.001)
                                   for k, (p50, setup) in enumerate(zip(change_p50, setups))])
    done, _ = _run_tool(tmp_path, 10)
    assert done.returncode == 0, done.stdout + done.stderr
    rule = _gain_lines(done.stdout)
    assert rule.keys() == BETTER.keys()
    for name in ("op_p50_ms", "op_p90_ms", "ops_per_s"):
        assert f"({BETTER[name]} is better): change won 9 of 10 pairs (1 tied)" in rule[name]
        assert rule[name].endswith("; a gain may be claimed"), rule[name]
    # quartiles of 1.8 1.8 1.9 1.9 2.0 2.0 2.1 2.1 2.2 2.2, and of the change's p50s
    assert "quartiles before 1.9 2 2.1, after 0.9625 1 1.1;" in rule["op_p50_ms"]
    # every pair won, but by less than the parent's quartiles lie apart
    assert "change won 10 of 10 pairs (0 tied)" in rule["setup_s"]
    assert rule["setup_s"].endswith("; no gain may be claimed")
    assert "change won 0 of 10 pairs (10 tied)" in rule["peak_rss_mb"]
    assert rule["peak_rss_mb"].endswith("; no gain may be claimed")


def test_the_gain_rule_needs_nine_tenths_of_the_pairs(tmp_path):
    _checkout(tmp_path, "parent", [_record(f"p{k}", 2.0) for k in range(10)])
    _checkout(tmp_path, "change", [_record(f"c{k}", 3.0 if k < 2 else 1.0) for k in range(10)])
    done, _ = _run_tool(tmp_path, 10)
    assert done.returncode == 0, done.stdout + done.stderr
    rule = _gain_lines(done.stdout)["op_p50_ms"]
    assert "change won 8 of 10 pairs (0 tied)" in rule
    assert rule.endswith("; no gain may be claimed")
