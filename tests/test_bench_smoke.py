"""The benchmark harness still runs against this checkout.

``benchmarks/smoke.py`` hooks entry points by name and compares plan text
with the generator's prediction, so renaming a hooked method or changing the
plan output fails here, not only in a benchmark run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_check_passes():
    result = subprocess.run([sys.executable, "benchmarks/smoke.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
