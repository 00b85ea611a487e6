"""Tiny line-oriented reconfiguration scripts.

Scripts drive a built architecture from the CLI: invoke methods, swap
implementations, rebind ports, add or remove components, and assert on the
outcome of the immediately preceding command with ``expect-ok`` or
``expect-error CODE``. They are test vectors, not a user language; ``#``
starts a comment line. The command word ends at the first run of whitespace.

``_ACTIONS`` is the one record of the six actions: for each, the test its
argument count must pass and the message that refuses it, how many leading
arguments are ``comp.port`` endpoints (invoke 1, bind 2, unbind 1), and the
runner. ``parse_script`` checks every command against its entry and
``run_script`` calls the entry's runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import runtime
from .adl import parse_component_fragment
from .corpus import CorpusStore
from .errors import ReconfigError, ScriptError
from .factory import ArchitectureInstance


@dataclass(frozen=True, slots=True)
class Command:
    line: int
    kind: str
    args: tuple[str, ...]
    text: str


@dataclass(frozen=True, slots=True)
class _Action:
    """One script action: the test its argument count must pass, the message that
    refuses it, how many leading arguments are ``comp.port`` endpoints, and the runner."""
    arity: Callable[[int], bool]
    usage: str
    endpoints: int
    run: Callable[[ArchitectureInstance, CorpusStore, tuple[str, ...]], None]


def _invoke(arch: ArchitectureInstance, corpus: CorpusStore, args: tuple[str, ...]) -> None:
    endpoint, method, *arg_types = args
    comp_name, _, port_name = endpoint.partition(".")
    port = arch.find_port(endpoint)
    values = [runtime.make_value(arch, port.owner, t) for t in arg_types]
    runtime.invoke(arch, comp_name, port_name, method, values)


# Each runner looks ``runtime.<fn>`` up when it runs, never before: a function
# swapped on the module (a span recorder, a test's patch) is the one called.
_ACTIONS = {
    "invoke": _Action(lambda n: n >= 2, "invoke needs comp.port and a method", 1, _invoke),
    "swap": _Action(lambda n: n == 3, "swap needs component, class, version", 0,
                    lambda arch, corpus, args: runtime.swap_implementation(
                        arch, args[0], (args[1], args[2]), corpus)),
    "bind": _Action(lambda n: n == 2, "bind needs client and server endpoints", 2,
                    lambda arch, corpus, args: runtime.bind_ports(arch, *args)),
    "unbind": _Action(lambda n: n == 1, "unbind needs one client endpoint", 1,
                      lambda arch, corpus, args: runtime.unbind_port(arch, *args)),
    "add": _Action(lambda n: n == 1, "add needs an inline <component .../> element", 0,
                   lambda arch, corpus, args: runtime.add_component(
                       arch, parse_component_fragment(args[0]), corpus)),
    "remove": _Action(lambda n: n == 1, "remove needs one component name", 0,
                      lambda arch, corpus, args: runtime.remove_component(arch, *args)),
}


def parse_script(text: str) -> list[Command]:
    commands: list[Command] = []
    previous_kind: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word = line.split(maxsplit=1)[0]
        rest = line[len(word):].strip()
        args = (rest,) if word == "add" and rest else tuple(rest.split())
        if (action := _ACTIONS.get(word)) is not None:
            if not action.arity(len(args)):
                raise ScriptError(lineno, action.usage)
            for endpoint in args[:action.endpoints]:
                if endpoint.count(".") != 1:
                    raise ScriptError(lineno, f"endpoint {endpoint!r} must be comp.port")
        elif word == "expect-ok":
            if previous_kind not in _ACTIONS:
                raise ScriptError(lineno, "expect-ok must follow a command")
            if args:
                raise ScriptError(lineno, "expect-ok takes no arguments")
        elif word == "expect-error":
            if previous_kind not in _ACTIONS:
                raise ScriptError(lineno, "expect-error must follow a command")
            if len(args) != 1:
                raise ScriptError(lineno, "expect-error takes exactly one error code")
        else:
            raise ScriptError(lineno, f"unknown command {word!r}")
        commands.append(Command(lineno, word, args, line))
        previous_kind = word
    return commands


@dataclass
class ScriptResult:
    ok: bool
    output: list[str]
    failure: Optional[str] = None


def run_script(arch: ArchitectureInstance, corpus: CorpusStore,
               commands: list[Command]) -> ScriptResult:
    """Execute commands in order; the first failed assertion stops the run.

    A command error that no expect-* consumes is itself a failure: scripts
    must say what they expect.
    """
    output: list[str] = []
    pending: Optional[tuple[Command, str]] = None

    def unasserted(cmd: Command, outcome: str) -> ScriptResult:
        return ScriptResult(False, output,
                            f"line {cmd.line}: unexpected error {outcome} ({cmd.text})")

    for cmd in commands:
        if (action := _ACTIONS.get(cmd.kind)) is not None:
            if pending is not None and pending[1] != "ok":
                return unasserted(*pending)
            try:
                action.run(arch, corpus, cmd.args)
                outcome = "ok"
            except ReconfigError as exc:
                outcome = exc.code
            output.append(f"line {cmd.line}: {outcome}" if outcome == "ok"
                          else f"line {cmd.line}: error {outcome}")
            pending = (cmd, outcome)
        elif pending is None:
            raise ScriptError(cmd.line, f"{cmd.kind} must follow a command")
        elif cmd.kind == "expect-ok":
            if pending[1] != "ok":
                return ScriptResult(False, output,
                                    f"line {cmd.line}: expected ok, got {pending[1]} "
                                    f"(command at line {pending[0].line})")
            pending = None
        else:  # expect-error CODE
            want = cmd.args[0]
            if pending[1] == "ok" or pending[1] != want:
                return ScriptResult(False, output,
                                    f"line {cmd.line}: expected error {want}, got {pending[1]} "
                                    f"(command at line {pending[0].line})")
            pending = None
    if pending is not None and pending[1] != "ok":
        return unasserted(*pending)
    return ScriptResult(True, output)
