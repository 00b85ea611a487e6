"""``tools/bench_pair.py`` on two fake checkouts whose ``benchmarks/run.py`` prints canned
run records: the order of the runs, the refusal of an incorrect run and the median pick."""

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


def _record(run: str, p50: float, correct: bool = True) -> dict:
    metrics = {name: {"unit": "-", "value": value} for name, value in
               (("setup_s", 0.1), ("op_p50_ms", p50), ("op_p90_ms", 2 * p50),
                ("ops_per_s", 1 / p50), ("peak_rss_mb", 30.0))}
    return {"run": run, "correct": correct, "metrics": metrics}


def _checkout(base: Path, name: str, records: list[dict]) -> Path:
    root = base / name
    (root / "benchmarks").mkdir(parents=True)
    (root / "src").mkdir()
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
