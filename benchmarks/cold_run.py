"""Time one cold ``reconfig run`` in a fresh interpreter.

Usage: python3 cold_run.py SRC_DIR run ADL SCRIPT --corpus DIR

The clock starts before ``reconfig`` is imported and stops when ``main``
returns, so it covers what a one-shot CLI user pays beyond interpreter
start-up. Prints one JSON line: the seconds normalised by the speed gauge
(see speed.py), the raw seconds, the exit code and the captured stdout.
"""

import contextlib
import io
import json
import sys
import time

import speed


def main() -> int:
    buf = io.StringIO()
    with speed.Gauge() as gauge:
        t0 = time.perf_counter_ns()
        sys.path.insert(0, sys.argv[1])
        from reconfig import cli

        with contextlib.redirect_stdout(buf):
            code = cli.main(sys.argv[2:])
        t1 = time.perf_counter_ns()
    print(json.dumps({"seconds": gauge.seconds(t0, t1), "raw_seconds": (t1 - t0) / 1e9,
                      "code": code, "stdout": buf.getvalue()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
