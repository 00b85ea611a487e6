"""Switch off each guard of the package, one at a time, and list the ones no test notices.

A guard is an ``if <test>:`` statement in ``src/reconfig`` whose body ends in
``raise ...`` or in ``return <Error>(...)``, where ``<Error>`` is a class that
``errors.py`` defines or a built-in exception; what the body does before does
not matter. A mutant replaces the test with ``False``, so the refusal can
never happen; the tier-1
suite (without the benchmark smoke test) then runs against it under a
timeout. A mutant that makes the suite fail or time out is killed; one that
passes survives, and the guard it switched off is pinned by no test.

Each worker copies the checkout into a temporary directory and applies its
mutants there, one per run, so the checkout itself is never written. There is
one worker per CPU. Run it from anywhere, with no options:

    python3 tools/mutants.py

It needs pytest and hypothesis, as the test suite does, and nothing else.
"""

from __future__ import annotations

import ast
import builtins
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "reconfig"
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed=0", "--ignore=tests/test_bench_smoke.py"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".bench_out", ".bench_work", ".benchmarks", "*.egg-info")


def error_names() -> set[str]:
    """The exception classes a guard may return: those ``errors.py`` defines, and the
    built-in ones."""
    tree = ast.parse((ROOT / PACKAGE / "errors.py").read_bytes())
    return ({node.name for node in tree.body if isinstance(node, ast.ClassDef)}
            | {name for name, value in vars(builtins).items()
               if isinstance(value, type) and issubclass(value, BaseException)})


def _refuses(body: list[ast.stmt], errors: set[str]) -> bool:
    """Whether a block ends in ``raise`` or in ``return <Error>(...)``, whatever it does
    first."""
    last = body[-1]
    if isinstance(last, ast.Raise):
        return True
    return (isinstance(last, ast.Return) and isinstance(last.value, ast.Call)
            and isinstance(last.value.func, ast.Name) and last.value.func.id in errors)


def guards(source: bytes, errors: set[str]) -> list[tuple[int, int, int, int, int]]:
    """(line, start line, start col, end line, end col) of each guard's test.

    Lines count from 1 and columns are byte offsets, as ``ast`` gives them.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and _refuses(node.body, errors):
            test = node.test
            found.append((node.lineno, test.lineno, test.col_offset,
                          test.end_lineno, test.end_col_offset))
    return sorted(found)


def mutate(source: bytes, guard: tuple[int, int, int, int, int]) -> bytes:
    """``source`` with the guard's test replaced by ``False``."""
    _, line, col, end_line, end_col = guard
    lines = source.splitlines(keepends=True)
    start = sum(len(text) for text in lines[:line - 1]) + col
    end = sum(len(text) for text in lines[:end_line - 1]) + end_col
    return source[:start] + b"False" + source[end:]


def run_suite(copy: Path, timeout: float) -> bool:
    """Whether the suite passes in ``copy`` within ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(PYTEST, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    mutants = []
    errors = error_names()
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        source = path.read_bytes()
        mutants += [(path.name, source, guard) for guard in guards(source, errors)]
    workers = os.cpu_count() or 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copies: queue.Queue[Path] = queue.Queue()
        for i in range(workers):
            copy = Path(scratch) / f"w{i}"
            shutil.copytree(ROOT, copy, ignore=SKIP)
            copies.put(copy)

        first = copies.get()
        t0 = time.perf_counter()
        if not run_suite(first, timeout=3600):
            print("the suite fails on the unmutated checkout; no mutant was run")
            return 1
        timeout = max(60.0, 5 * (time.perf_counter() - t0))
        copies.put(first)

        def survives(mutant) -> bool:
            name, source, guard = mutant
            copy = copies.get()
            target = copy / PACKAGE / name
            try:
                target.write_bytes(mutate(source, guard))
                return run_suite(copy, timeout)
            finally:
                target.write_bytes(source)
                copies.put(copy)

        with ThreadPoolExecutor(workers) as pool:
            outcomes = list(pool.map(survives, mutants))

    survivors = [f"{name}:{guard[0]}" for (name, _, guard), alive in zip(mutants, outcomes)
                 if alive]
    for survivor in survivors:
        print(survivor)
    print(f"{len(survivors)} of {len(mutants)} guards survived "
          f"({workers} workers, timeout {timeout:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
