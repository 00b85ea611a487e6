"""Machine-speed gauge used to normalise measured times.

On a shared machine the speed available to one process drifts, by up to 2x
within seconds, which swamps the differences a benchmark must resolve. While
the gauge is active, an interval timer (``SIGALRM``) runs a fixed pure-Python
reference slice every ``PERIOD_S`` and records how long it took. An op that
ran from ``t0`` to ``t1`` is then reported as its time minus the slices that
ran inside it, scaled by ``NOMINAL_NS / r``, where ``r`` is the median slice
time within ``WINDOW_NS`` of the op. Parent and change are scaled the same
way, so the constant cancels when they are compared. Raw times stay in the
run record.

Sampling during the op matters for long ops: a 1.5 s build straddles speed
changes that readings taken only before and after it miss. On a 2-vCPU VM
whose raw times varied 1.3-2x between runs, this brought the run-to-run
spread (IQR / median) of the median op time from 29-42% to about 4% on both
the build and the invoke workload.

The slice mixes a dict-update loop with visits of a small pre-built object
tree. It allocates no container objects, so it does not advance the garbage
collector's counters and does not move the program's own collections.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

#: Median slice time inside the timed loop on a quiet Intel Xeon vCPU at
#: 2.1 GHz with Python 3.11; with it, normalised times read close to raw ones there.
NOMINAL_NS = 350_000
PERIOD_S = 0.02
WINDOW_NS = 50_000_000


class _Node:
    __slots__ = ("name", "kids", "val")

    def __init__(self, name: str, val: int):
        self.name = name
        self.kids: list[_Node] = []
        self.val = val

    def visit(self, acc: dict) -> None:
        acc[self.name] = acc.get(self.name, 0) + self.val
        for kid in self.kids:
            kid.visit(acc)


_TREE = [_Node(f"n{i}", i) for i in range(40)]
for _i in range(1, len(_TREE)):
    _TREE[(_i - 1) // 3].kids.append(_TREE[_i])
_ACC: dict = {}
_TABLE: dict = {}


def reference_slice() -> None:
    for i in range(2000):
        key = i % 97
        _TABLE[key] = (_TABLE.get(key, 0) + i) & 0xFFFF
    for _ in range(12):
        _TREE[0].visit(_ACC)
    _ACC.clear()


class Gauge:
    """Samples the reference slice from an interval timer while active."""

    def __init__(self):
        self.starts = array("q")
        self.ends = array("q")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        reference_slice()
        self.starts.append(t0)
        self.ends.append(time.perf_counter_ns())

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, spans: list[tuple[int, int]]) -> list[float]:
        """Nominal ns for each (t0, t1) perf_counter_ns interval, slices excluded."""
        starts = list(self.starts)
        took = [e - s for s, e in zip(self.starts, self.ends)]
        overall = statistics.median(took) if took else NOMINAL_NS
        cumulative = [0]
        for t in took:
            cumulative.append(cumulative[-1] + t)
        out = []
        for t0, t1 in spans:
            lo = bisect.bisect_left(starts, t0 - WINDOW_NS)
            hi = bisect.bisect_right(starts, t1 + WINDOW_NS)
            near = took[lo:hi]
            inside_lo = bisect.bisect_left(starts, t0)
            inside_hi = bisect.bisect_right(starts, t1)
            inside = cumulative[inside_hi] - cumulative[inside_lo]
            ref = statistics.median(near) if near else overall
            out.append((t1 - t0 - inside) * NOMINAL_NS / ref)
        return out

    def seconds(self, t0: int, t1: int) -> float:
        return self.normalise([(t0, t1)])[0] / 1e9
