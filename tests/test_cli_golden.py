"""Golden CLI transcripts: the exit code, stdout and stderr of ``reconfig`` commands.

Each case records one ``main(argv)`` call as ``case <argv> exit=<code>``,
followed by its stdout lines (``out|``) and stderr lines (``err|``); a stream
that does not end with a line break gets a ``\\ no newline`` line. The fixture
root prints as ``<fixtures>`` and the scratch directory as ``<tmp>``. The
cases are:

- ``check``, and ``plan`` at every granularity (``selective`` included), for
  every fixture ADL with every fixture corpus;
- ``bench <adl> 3`` for the same pairs, with ``time_s`` masked;
- ``run`` of each fixture script with the ADL and corpus it is written for,
  followed by the sha256 of the file its ``--trace`` wrote;
- the set-up errors: no corpus, a missing ADL, a missing script and a script
  with a grammar error.

The file pins every exit code and output byte across refactorings of the
command-line front end. To regenerate it (only when a change is meant to alter
that output)::

    PYTHONPATH=src python tests/test_cli_golden.py > tests/fixtures/golden/cli.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden" / "cli.txt"

GRANULARITIES = ("per-component", "single", "selective")
# Each fixture script with the ADL and corpus it is written for.
RUNS = (
    ("hello_run.script", "hello.fractal.xml", "hello"),
    ("push_opaque.script", "push_opaque.fractal.xml", "pushopaque"),
    ("push_opaque_file.script", "push_opaque_file.fractal.xml", "pushopaque"),
    ("push_shared.script", "push_shared.fractal.xml", "pushshared"),
    ("swap.script", "hello_v1.fractal.xml", "hello_swap"),
)
_TIME = re.compile(r"time_s=[0-9.]+")


def _streams(label: str, text: str) -> list[str]:
    lines = [f"{label}| {line}" for line in text.split("\n")]
    if text.endswith("\n"):
        lines.pop()
    elif text:
        lines.append("\\ no newline")
    else:
        lines = []
    return lines


def _case(argv: list[str], masks: dict[str, str]) -> list[str]:
    from reconfig.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)

    def masked(text: str) -> str:
        for real, placeholder in masks.items():
            text = text.replace(real, placeholder)
        return text

    return ([f"case {masked(' '.join(argv))} exit={code}"]
            + _streams("out", _TIME.sub("time_s=<masked>", masked(out.getvalue())))
            + _streams("err", masked(err.getvalue())))


@contextlib.contextmanager
def _no_corpus_variable():
    saved = os.environ.pop("RECONFIG_CORPUS", None)
    try:
        yield
    finally:
        if saved is not None:
            os.environ["RECONFIG_CORPUS"] = saved


def golden_lines() -> list[str]:
    adls = sorted((FIXTURES / "adl").glob("*.xml"))
    corpora = sorted(p for p in (FIXTURES / "corpora").iterdir() if p.is_dir())
    hello = str(FIXTURES / "adl" / "hello.fractal.xml")
    hello_corpus = str(FIXTURES / "corpora" / "hello")
    hello_script = str(FIXTURES / "scripts" / "hello_run.script")
    lines: list[str] = []
    with tempfile.TemporaryDirectory() as tmp, _no_corpus_variable():
        masks = {tmp: "<tmp>", str(FIXTURES): "<fixtures>"}
        for adl in adls:
            for corpus in corpora:
                lines += _case(["check", str(adl), "--corpus", str(corpus)], masks)
                for granularity in GRANULARITIES:
                    lines += _case(["plan", str(adl), "--corpus", str(corpus),
                                    "--granularity", granularity], masks)
                lines += _case(["bench", str(adl), "3", "--corpus", str(corpus)], masks)
        trace = Path(tmp) / "trace.txt"
        for script, adl_name, corpus_name in RUNS:
            lines += _case(["run", str(FIXTURES / "adl" / adl_name),
                            str(FIXTURES / "scripts" / script),
                            "--corpus", str(FIXTURES / "corpora" / corpus_name),
                            "--trace", str(trace)], masks)
            lines.append(f"trace sha256={hashlib.sha256(trace.read_bytes()).hexdigest()}")
            trace.unlink()
        missing_adl = str(FIXTURES / "adl" / "missing.fractal.xml")
        for head, tail in (("check", []), ("plan", []), ("run", [hello_script]),
                           ("bench", ["3"])):
            lines += _case([head, hello, *tail], masks)
            lines += _case([head, missing_adl, *tail, "--corpus", hello_corpus], masks)
        lines += _case(["run", hello, str(FIXTURES / "scripts" / "missing.script"),
                        "--corpus", hello_corpus], masks)
        bad_script = Path(tmp) / "grammar.script"
        bad_script.write_text("invoke HelloWorld.r run\nexpect-ok\nteleport a.b\n",
                              encoding="utf-8")
        lines += _case(["run", hello, str(bad_script), "--corpus", hello_corpus], masks)
    return lines


def test_cli_transcripts_match_the_golden_file():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"line {i}"


if __name__ == "__main__":
    sys.stdout.write("\n".join(golden_lines()) + "\n")
