"""Tiny line-oriented reconfiguration scripts.

Scripts drive a built architecture from the CLI: invoke methods, swap
implementations, rebind ports, add or remove components, and assert on the
outcome of the immediately preceding command with ``expect-ok`` or
``expect-error CODE``. They are test vectors, not a user language; ``#``
starts a comment line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


_ACTIONS = {"invoke", "swap", "bind", "unbind", "add", "remove"}


def parse_script(text: str) -> list[Command]:
    commands: list[Command] = []
    previous_kind: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word, _, rest = line.partition(" ")
        rest = rest.strip()
        if word == "add":
            if not rest:
                raise ScriptError(lineno, "add needs an inline <component .../> element")
            args: tuple[str, ...] = (rest,)
        else:
            args = tuple(rest.split()) if rest else ()
        if word in _ACTIONS:
            _check_arity(word, args, lineno)
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


def _check_arity(kind: str, args: tuple[str, ...], lineno: int) -> None:
    if kind == "invoke" and len(args) < 2:
        raise ScriptError(lineno, "invoke needs comp.port and a method")
    if kind == "swap" and len(args) != 3:
        raise ScriptError(lineno, "swap needs component, class, version")
    if kind == "bind" and len(args) != 2:
        raise ScriptError(lineno, "bind needs client and server endpoints")
    if kind == "unbind" and len(args) != 1:
        raise ScriptError(lineno, "unbind needs one client endpoint")
    if kind == "remove" and len(args) != 1:
        raise ScriptError(lineno, "remove needs one component name")
    if kind in ("invoke", "bind", "unbind"):
        for endpoint in args[:1] if kind != "bind" else args:
            if endpoint.count(".") != 1:
                raise ScriptError(lineno, f"endpoint {endpoint!r} must be comp.port")


@dataclass
class ScriptResult:
    ok: bool
    output: list[str]
    failure: Optional[str] = None


def _execute(arch: ArchitectureInstance, corpus: CorpusStore, cmd: Command) -> None:
    if cmd.kind == "invoke":
        endpoint, method, *arg_types = cmd.args
        comp_name, _, port_name = endpoint.partition(".")
        port = arch.find_port(endpoint)
        values = [runtime.make_value(arch, port.owner, t) for t in arg_types]
        runtime.invoke(arch, comp_name, port_name, method, values)
    elif cmd.kind == "swap":
        component, cls, version = cmd.args
        runtime.swap_implementation(arch, component, (cls, version), corpus)
    elif cmd.kind == "bind":
        runtime.bind_ports(arch, cmd.args[0], cmd.args[1])
    elif cmd.kind == "unbind":
        runtime.unbind_port(arch, cmd.args[0])
    elif cmd.kind == "add":
        runtime.add_component(arch, parse_component_fragment(cmd.args[0]), corpus)
    elif cmd.kind == "remove":
        runtime.remove_component(arch, cmd.args[0])
    else:  # pragma: no cover - parse_script filters kinds
        raise AssertionError(cmd.kind)


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
        if cmd.kind in _ACTIONS:
            if pending is not None and pending[1] != "ok":
                return unasserted(*pending)
            try:
                _execute(arch, corpus, cmd)
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
