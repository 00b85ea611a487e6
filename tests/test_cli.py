from __future__ import annotations

import gc
import shutil

import pytest

from reconfig import cli, runtime
from reconfig.adl import parse_component_fragment
from reconfig.cli import main
from reconfig.errors import ScriptError
from reconfig.script import _ACTIONS, Command, parse_script, run_script

from conftest import adl_path, build_architecture, corpus_path, script_path
from test_factory import _write_chain

HELLO = str(adl_path("hello.fractal.xml"))
HELLO_CORPUS = str(corpus_path("hello"))


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_passes_on_the_reference_fixture(capsys):
    code, out = _run(capsys, "check", HELLO, "--corpus", HELLO_CORPUS)
    assert code == 0 and out == ""


def test_check_reports_a_version_mismatch_with_exit_one(capsys, tmp_path):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(corpus_path("hello"), corpus_dir)
    (corpus_dir / "Service-2.0.typedef").write_text(
        "name: Service\nversion: 2.0\nkind: interface\nref: Request@1.0\n"
        "method: void push(Request)\nmethod: ServerImpl handler()\n")
    mutated = adl_path("hello.fractal.xml").read_text().replace(
        '<interface name="s" role="server" \n'
        '                   signature="Service" version="1.0"/>',
        '<interface name="s" role="server" \n'
        '                   signature="Service" version="2.0"/>')
    adl_file = tmp_path / "mutated.fractal.xml"
    adl_file.write_text(mutated)

    code, out = _run(capsys, "check", str(adl_file), "--corpus", str(corpus_dir))
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1 and "VersionMismatch" in lines[0]


def test_check_missing_file_exits_two(capsys):
    code, _ = _run(capsys, "check", "no-such-file.xml", "--corpus", HELLO_CORPUS)
    assert code == 2


def test_check_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.fractal.xml"
    bad.write_text("<definitio name='x'>")
    code, _ = _run(capsys, "check", str(bad), "--corpus", HELLO_CORPUS)
    assert code == 2


def test_plan_per_component_prints_five_resources_three_infos(capsys):
    code, out = _run(capsys, "plan", HELLO, "--corpus", HELLO_CORPUS,
                     "--granularity", "per-component")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("RESOURCE ")) == 5
    assert sum(1 for l in lines if l.startswith("INFO ")) == 3


def test_plan_single_prints_one_of_each(capsys):
    code, out = _run(capsys, "plan", HELLO, "--corpus", HELLO_CORPUS,
                     "--granularity", "single")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("RESOURCE ")) == 1
    assert sum(1 for l in lines if l.startswith("INFO ")) == 1


def test_plan_single_exits_one_on_version_conflict(capsys, tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "Request-1.0.typedef").write_text("name: Request\nversion: 1.0\nkind: class\n")
    (corpus_dir / "Request-2.0.typedef").write_text("name: Request\nversion: 2.0\nkind: class\n")
    (corpus_dir / "AImpl-1.0.typedef").write_text(
        "name: AImpl\nversion: 1.0\nkind: class\nref: Request@1.0\n")
    (corpus_dir / "BImpl-1.0.typedef").write_text(
        "name: BImpl\nversion: 1.0\nkind: class\nref: Request@2.0\n")
    adl_file = tmp_path / "two.fractal.xml"
    adl_file.write_text(
        '<definition name="X" version="1.0">'
        '<component name="a"><content class="AImpl" version="1.0"/></component>'
        '<component name="b"><content class="BImpl" version="1.0"/></component>'
        '</definition>')
    code, out = _run(capsys, "plan", str(adl_file), "--corpus", str(corpus_dir),
                     "--granularity", "single")
    assert code == 1 and "VersionConflict" in out


def test_selective_granularity_is_reserved(capsys):
    code, _ = _run(capsys, "plan", HELLO, "--corpus", HELLO_CORPUS,
                   "--granularity", "selective")
    assert code == 2


def test_run_traversal_script_and_golden_trace(capsys, tmp_path, fixtures_dir):
    trace_file = tmp_path / "trace.txt"
    code, out = _run(capsys, "run", HELLO, str(script_path("hello_run.script")),
                     "--corpus", HELLO_CORPUS, "--trace", str(trace_file))
    assert code == 0
    assert out.splitlines() == ["line 2: ok", "PASS all assertions hold"]
    golden = (fixtures_dir / "golden" / "hello_trace.txt").read_text()
    assert trace_file.read_text() == golden


def test_run_swap_script(capsys, tmp_path, fixtures_dir):
    trace_file = tmp_path / "trace.txt"
    code, out = _run(capsys, "run", str(adl_path("hello_v1.fractal.xml")),
                     str(script_path("swap.script")),
                     "--corpus", str(corpus_path("hello_swap")),
                     "--trace", str(trace_file))
    assert code == 0
    assert out.splitlines()[-1] == "PASS all assertions hold"
    golden = (fixtures_dir / "golden" / "swap_trace.txt").read_text()
    assert trace_file.read_text() == golden


def test_scripted_bind_to_a_foreign_signature_is_a_type_mismatch(capsys, tmp_path):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(corpus_path("hello"), corpus_dir)
    (corpus_dir / "Service-2.0.typedef").write_text(
        "name: Service\nversion: 2.0\nkind: interface\n")
    (corpus_dir / "AltImpl-1.0.typedef").write_text(
        "name: AltImpl\nversion: 1.0\nkind: class\nref: Request@1.0\n")
    adl_file = tmp_path / "loose.fractal.xml"
    adl_file.write_text(
        '<definition name="Loose" version="1.0">'
        '<component name="client">'
        '<interface name="s" role="client" signature="Service" version="1.0"/>'
        '<content class="ClientImpl" version="1.0"/>'
        '<file name="Request" version="1.0"/></component>'
        '<component name="serverX">'
        '<interface name="s" role="server" signature="Service" version="2.0"/>'
        '<content class="AltImpl" version="1.0"/></component>'
        '</definition>')
    script = tmp_path / "bind.script"
    script.write_text("bind client.s serverX.s\nexpect-error TypeMismatch\n")
    code, out = _run(capsys, "run", str(adl_file), str(script), "--corpus", str(corpus_dir))
    assert code == 0
    assert "error TypeMismatch" in out


def test_run_expected_error_script_exits_zero(capsys):
    code, out = _run(capsys, "run", str(adl_path("push_opaque.fractal.xml")),
                     str(script_path("push_opaque.script")),
                     "--corpus", str(corpus_path("pushopaque")))
    assert code == 0
    assert "line 2: error TypeMismatch" in out


def test_run_failed_assertion_names_the_line(capsys, tmp_path):
    script = tmp_path / "bad.script"
    for text, fail in [
        ("invoke HelloWorld.r walk\nexpect-ok\n",
         "FAIL line 2: expected ok, got UnknownMethod (command at line 1)"),
        ("invoke HelloWorld.r walk\ninvoke HelloWorld.r run\n",
         "FAIL line 1: unexpected error UnknownMethod (invoke HelloWorld.r walk)"),
        ("invoke HelloWorld.r walk\nexpect-error TypeMismatch\n",
         "FAIL line 2: expected error TypeMismatch, got UnknownMethod (command at line 1)"),
        ("invoke HelloWorld.r run\nexpect-error TypeMismatch\n",
         "FAIL line 2: expected error TypeMismatch, got ok (command at line 1)"),
    ]:
        script.write_text(text)
        code, out = _run(capsys, "run", HELLO, str(script), "--corpus", HELLO_CORPUS)
        assert code == 1 and fail in out.splitlines(), text


def test_run_unasserted_error_fails(capsys, tmp_path):
    script = tmp_path / "loose.script"
    script.write_text("invoke HelloWorld.r walk\n")
    code, out = _run(capsys, "run", HELLO, str(script), "--corpus", HELLO_CORPUS)
    assert code == 1
    assert "unexpected error UnknownMethod" in out


def test_swap_to_a_malformed_target_is_an_expectable_error(capsys, tmp_path):
    script = tmp_path / "malformed.script"
    script.write_text("swap server ServerImpl x.y\nexpect-error UnresolvableExport\n"
                      "swap server Server-Impl 2.0\nexpect-error UnresolvableExport\n")
    code, out = _run(capsys, "run", HELLO, str(script), "--corpus", HELLO_CORPUS)
    assert code == 0
    assert out.splitlines() == ["line 1: error UnresolvableExport",
                                "line 3: error UnresolvableExport",
                                "PASS all assertions hold"]


def test_a_call_cycle_is_an_expectable_call_depth_error(capsys, tmp_path):
    script = tmp_path / "cycle.script"
    script.write_text("unbind n2.out\nexpect-ok\nbind n2.out n1.in\nexpect-ok\n"
                      "invoke Chain.head next\nexpect-error CallDepthExceeded\n")
    code, out = _run(capsys, "run", str(adl_path("chain3.fractal.xml")), str(script),
                     "--corpus", str(corpus_path("chain")))
    assert code == 0
    assert out.splitlines() == ["line 1: ok", "line 3: ok", "line 5: error CallDepthExceeded",
                                "PASS all assertions hold"]


def test_binding_a_port_that_routes_out_is_an_expectable_already_bound(capsys, tmp_path):
    node = ('<interface name="p" role="client" signature="Hop" version="1.0"/>'
            '<interface name="i" role="server" signature="Hop" version="1.0"/>'
            '<content class="NodeImpl" version="1.0"/></component>')
    adl_file = tmp_path / "route_out.fractal.xml"
    adl_file.write_text('<definition name="Out" version="1.0">'
                        '<interface name="q" role="client" signature="Hop" version="1.0"/>'
                        f'<component name="a">{node}<component name="b">{node}'
                        '<binding client="a.p" server="this.q"/></definition>')
    script = tmp_path / "bind.script"
    script.write_text("bind a.p b.i\nexpect-error AlreadyBound\n")
    code, out = _run(capsys, "run", str(adl_file), str(script),
                     "--corpus", str(corpus_path("chain")))
    assert code == 0
    assert out.splitlines() == ["line 1: error AlreadyBound", "PASS all assertions hold"]


def test_adding_a_port_declared_twice_is_an_expectable_duplicate_port(capsys, tmp_path):
    script = tmp_path / "add.script"
    port = '<interface name="s" role="server" signature="Service" version="1.0"/>'
    script.write_text(f'add <component name="x">{port}{port}'
                      '<content class="ServerImpl" version="2.0"/>'
                      '<file name="Request" version="1.0"/></component>\n'
                      "expect-error DuplicatePort\n")
    code, out = _run(capsys, "run", str(adl_path("hello_v1.fractal.xml")), str(script),
                     "--corpus", str(corpus_path("hello_swap")))
    assert code == 0
    assert out.splitlines() == ["line 1: error DuplicatePort", "PASS all assertions hold"]


def test_run_script_refuses_an_expectation_with_no_command():
    arch, corpus, _ = build_architecture("hello.fractal.xml", "hello")
    for kind, args in (("expect-ok", ()), ("expect-error", ("NotFound",))):
        with pytest.raises(ScriptError, match="must follow a command"):
            run_script(arch, corpus, [Command(1, kind, args, kind)])


def test_script_grammar_errors():
    for text, message in [
        ("expect-ok\n", "line 1: expect-ok must follow a command"),
        ("invoke onlyoneword\n", "line 1: invoke needs comp.port and a method"),
        ("teleport a.b\n", "line 1: unknown command 'teleport'"),
        ("add\n", "line 1: add needs an inline <component .../> element"),
        ("remove a\nexpect-ok now\n", "line 2: expect-ok takes no arguments"),
        ("expect-error X\n", "line 1: expect-error must follow a command"),
        ("remove a\nexpect-error\n", "line 2: expect-error takes exactly one error code"),
        ("swap server ServerImpl\n", "line 1: swap needs component, class, version"),
        ("bind client.s\n", "line 1: bind needs client and server endpoints"),
        ("unbind\n", "line 1: unbind needs one client endpoint"),
        ("remove\n", "line 1: remove needs one component name"),
        ("unbind ap\n", "line 1: endpoint 'ap' must be comp.port"),
        ("invoke a run\n", "line 1: endpoint 'a' must be comp.port"),
        ("bind a.p b\n", "line 1: endpoint 'b' must be comp.port"),
    ]:
        with pytest.raises(ScriptError) as exc:
            parse_script(text)
        assert str(exc.value) == f"script {message}", text
    # Only invoke's first argument, bind's two and unbind's one are endpoints.
    assert [(c.kind, c.args) for c in parse_script(
        "swap a.b C 1.0\nswap a C 1.0\nremove a.b\nremove a\ninvoke a.p run x.y.z\n")] == [
        ("swap", ("a.b", "C", "1.0")), ("swap", ("a", "C", "1.0")), ("remove", ("a.b",)),
        ("remove", ("a",)), ("invoke", ("a.p", "run", "x.y.z"))]


def test_a_tab_may_end_the_command_word(capsys, tmp_path):
    commands = parse_script("invoke\tHelloWorld.r run\nexpect-ok\t\nremove\ta\n"
                            "add\t<component name=\"x\"/>\n")
    assert [(c.kind, c.args) for c in commands] == [
        ("invoke", ("HelloWorld.r", "run")), ("expect-ok", ()), ("remove", ("a",)),
        ("add", ('<component name="x"/>',))]
    script = tmp_path / "tabs.script"
    script.write_text("invoke\tHelloWorld.r\trun\nexpect-ok\n")
    assert _run(capsys, "run", HELLO, str(script), "--corpus", HELLO_CORPUS) == (
        0, "line 1: ok\nPASS all assertions hold\n")


def test_each_action_calls_the_runtime_function_in_place_when_it_runs(monkeypatch):
    """A runner looks its ``runtime`` function up when it runs, so a function
    swapped on the module afterwards, as a span recorder does, is the one called."""
    arch, corpus, _ = build_architecture("hello.fractal.xml", "hello")
    calls = []
    for name in ("invoke", "make_value", "swap_implementation", "bind_ports", "unbind_port",
                 "add_component", "remove_component"):
        monkeypatch.setattr(runtime, name,
                            lambda *args, name=name: calls.append((name, args[1:])))
    fragment = '<component name="x"><content class="ServerImpl" version="2.0"/></component>'
    scripts = {
        "invoke": ("invoke HelloWorld.r run Request",
                   [("make_value", (arch.components["HelloWorld"], "Request")),
                    ("invoke", ("HelloWorld", "r", "run", [None]))]),
        "swap": ("swap server ServerImpl 2.0",
                 [("swap_implementation", ("server", ("ServerImpl", "2.0"), corpus))]),
        "bind": ("bind client.s server.s", [("bind_ports", ("client.s", "server.s"))]),
        "unbind": ("unbind client.s", [("unbind_port", ("client.s",))]),
        "add": (f"add {fragment}",
                [("add_component", (parse_component_fragment(fragment), corpus))]),
        "remove": ("remove server", [("remove_component", ("server",))]),
    }
    assert sorted(scripts) == sorted(_ACTIONS)
    for kind, (text, want) in scripts.items():
        calls.clear()
        assert run_script(arch, corpus, parse_script(text)).ok, kind
        assert calls == want, kind


def test_add_and_remove_through_a_script(capsys, tmp_path):
    script = tmp_path / "reshape.script"
    script.write_text(
        'add <component name="server2">'
        '<interface name="s" role="server" signature="Service" version="1.0"/>'
        '<content class="ServerImpl" version="2.0"/>'
        '<file name="Request" version="1.0"/></component>\n'
        "expect-ok\n"
        "unbind client.s\n"
        "expect-ok\n"
        "bind client.s server2.s\n"
        "expect-ok\n"
        "invoke HelloWorld.r run\n"
        "expect-ok\n"
        "remove server2\n"
        "expect-error CrossBindingExists\n"
        "unbind client.s\n"
        "expect-ok\n"
        "remove server2\n"
        "expect-ok\n")
    code, out = _run(capsys, "run", HELLO, str(script), "--corpus", HELLO_CORPUS)
    assert code == 0, out
    assert out.splitlines()[-1] == "PASS all assertions hold"


def test_corpus_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("RECONFIG_CORPUS", HELLO_CORPUS)
    code, _ = _run(capsys, "check", HELLO)
    assert code == 0
    monkeypatch.delenv("RECONFIG_CORPUS")
    code, _ = _run(capsys, "check", HELLO)
    assert code == 2


def test_run_setup_failure_exits_two(capsys, tmp_path):
    code, _ = _run(capsys, "run", HELLO, str(script_path("hello_run.script")),
                   "--corpus", str(tmp_path / "missing"))
    assert code == 2
    bad_script = tmp_path / "bad.script"
    bad_script.write_text("expect-ok\n")
    code, _ = _run(capsys, "run", HELLO, str(bad_script), "--corpus", HELLO_CORPUS)
    assert code == 2


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("<!-- caf\u00e9 -->\n".encode("latin-1"))
    return str(path)


def _corpus_with_a_dangling_ref(tmp_path):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(corpus_path("hello"), corpus_dir)
    impl = corpus_dir / "ServerImpl-2.0.typedef"
    impl.write_text(impl.read_text().replace("ref: Request@1.0", "ref: Ghost@1.0"))
    return str(corpus_dir)


def _methodless_export(tmp_path):
    """A definition whose root's one server port has a signature with no methods."""
    corpus_dir = tmp_path / "marker"
    corpus_dir.mkdir()
    (corpus_dir / "Marker-1.0.typedef").write_text("name: Marker\nversion: 1.0\nkind: interface\n")
    (corpus_dir / "MarkerImpl-1.0.typedef").write_text(
        "name: MarkerImpl\nversion: 1.0\nkind: class\nref: Marker@1.0\n")
    adl = tmp_path / "marker.fractal.xml"
    adl.write_text('<definition name="M" version="1.0">'
                   '<interface name="m" role="server" signature="Marker" version="1.0"/>'
                   '<component name="c">'
                   '<interface name="m" role="server" signature="Marker" version="1.0"/>'
                   '<content class="MarkerImpl" version="1.0"/></component>'
                   '<binding client="this.m" server="c.m"/></definition>')
    return ["bench", str(adl), "3", "--corpus", str(corpus_dir)]


def _two_diagnostics(tmp_path):
    adl = tmp_path / "unresolvable.fractal.xml"
    adl.write_text(adl_path("hello.fractal.xml").read_text().replace(
        'class="ClientImpl" version="1.0"', 'class="ClientImpl" version="4.0"').replace(
        'class="ServerImpl" version="2.0"', 'class="ServerImpl" version="3.0"'))
    return ["run", str(adl), HELLO_SCRIPT, "--corpus", HELLO_CORPUS]


HELLO_SCRIPT = str(script_path("hello_run.script"))
# Each builds, from a scratch directory, the argv of one I/O, parse or setup error.
SETUP_FAILURES = {
    "check-adl-not-utf8": lambda tmp: ["check", _not_utf8(tmp), "--corpus", HELLO_CORPUS],
    "plan-adl-not-utf8": lambda tmp: ["plan", _not_utf8(tmp), "--corpus", HELLO_CORPUS],
    "run-adl-not-utf8": lambda tmp: ["run", _not_utf8(tmp), HELLO_SCRIPT,
                                     "--corpus", HELLO_CORPUS],
    "run-script-not-utf8": lambda tmp: ["run", HELLO, _not_utf8(tmp), "--corpus", HELLO_CORPUS],
    "run-trace-into-a-missing-directory": lambda tmp: [
        "run", HELLO, HELLO_SCRIPT, "--corpus", HELLO_CORPUS,
        "--trace", str(tmp / "missing" / "trace.txt")],
    "bench-an-architecture-that-exports-no-server-port": lambda tmp: [
        "bench", str(adl_path("push_opaque.fractal.xml")), "3",
        "--corpus", str(corpus_path("pushopaque"))],
    "bench-an-export-whose-signature-has-no-methods": _methodless_export,
    "run-a-definition-with-diagnostics": _two_diagnostics,
}
# The whole error line of those cases whose message is pinned.
SETUP_MESSAGES = {
    "bench-an-export-whose-signature-has-no-methods": "signature Marker has no methods",
    "run-a-definition-with-diagnostics":
        "ERROR UnresolvableContent 4:5 no typedef ClientImpl@4.0; "
        "ERROR UnresolvableContent 12:5 no typedef ServerImpl@3.0",
}


@pytest.mark.parametrize("case", sorted(SETUP_FAILURES))
def test_every_setup_error_exits_two_with_an_error_line(capsys, tmp_path, case):
    code = main(SETUP_FAILURES[case](tmp_path))
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err
    if case in SETUP_MESSAGES:
        assert err == f"error: {SETUP_MESSAGES[case]}\n"


def test_check_and_plan_report_a_dangling_reference_with_exit_one(capsys, tmp_path):
    corpus_dir = _corpus_with_a_dangling_ref(tmp_path)
    diagnostic = "ERROR UnresolvableContent 12:5 no typedef Ghost@1.0 (via ServerImpl@2.0)\n"
    assert _run(capsys, "check", HELLO, "--corpus", corpus_dir) == (1, diagnostic)
    assert _run(capsys, "plan", HELLO, "--corpus", corpus_dir) == (1, diagnostic)
    assert main(["run", HELLO, HELLO_SCRIPT, "--corpus", corpus_dir]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_check_passes_exactly_when_plan_does_with_any_one_typedef_dropped(capsys, tmp_path):
    adls = sorted(str(p) for p in adl_path("").glob("*.fractal.xml"))
    cases = 0
    for corpus in sorted(p for p in corpus_path("").iterdir() if p.is_dir()):
        for dropped in sorted(corpus.glob("*.typedef")):
            corpus_dir = tmp_path / corpus.name / dropped.stem
            shutil.copytree(corpus, corpus_dir, ignore=shutil.ignore_patterns(dropped.name))
            for adl in adls:
                check = main(["check", adl, "--corpus", str(corpus_dir)])
                plan = main(["plan", adl, "--corpus", str(corpus_dir)])
                capsys.readouterr()
                assert (check == 0) == (plan == 0), (corpus.name, dropped.name, adl, check, plan)
                cases += 1
    assert cases == 132


def test_plan_with_diagnostics_exits_one(capsys, tmp_path):
    mutated = adl_path("hello.fractal.xml").read_text().replace(
        'class="ServerImpl" version="2.0"', 'class="ServerImpl" version="3.0"')
    adl_file = tmp_path / "bad.fractal.xml"
    adl_file.write_text(mutated)
    code, out = _run(capsys, "plan", str(adl_file), "--corpus", HELLO_CORPUS)
    assert code == 1 and "UnresolvableContent" in out


def test_bench_prints_a_report(capsys):
    code, out = _run(capsys, "bench", str(adl_path("chain3.fractal.xml")), "3",
                     "--corpus", str(corpus_path("chain")))
    assert code == 0
    assert out.startswith("calls=3 bookkeeping_ops=24 time_s=")
    assert "%" not in out


def test_bench_invalid_count_exits_two(capsys):
    code, _ = _run(capsys, "bench", str(adl_path("chain3.fractal.xml")), "0",
                   "--corpus", str(corpus_path("chain")))
    assert code == 2


def test_check_plan_run_are_byte_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        outputs.add(_run(capsys, "check", HELLO, "--corpus", HELLO_CORPUS)[1])
        outputs.add(_run(capsys, "plan", HELLO, "--corpus", HELLO_CORPUS)[1])
        outputs.add(_run(capsys, "run", HELLO, str(script_path("hello_run.script")),
                         "--corpus", HELLO_CORPUS)[1])
    assert len(outputs) == 3  # each command reproduced itself exactly


def _failing_script(tmp):
    script = tmp / "fail.script"
    script.write_text("invoke HelloWorld.r walk\n")
    return str(script)


CHAIN3 = str(adl_path("chain3.fractal.xml"))
CHAIN_CORPUS = str(corpus_path("chain"))
# Each builds the argv of one command and one exit code: 0, 1 (diagnostics or a
# failed assertion) or 2 (a set-up error). ``bench`` has no exit 1.
EXITS = {
    ("check", 0): lambda tmp: ["check", HELLO, "--corpus", HELLO_CORPUS],
    ("check", 1): lambda tmp: ["check", HELLO, "--corpus", _corpus_with_a_dangling_ref(tmp)],
    ("check", 2): lambda tmp: ["check", HELLO, "--corpus", str(tmp / "missing")],
    ("plan", 0): lambda tmp: ["plan", HELLO, "--corpus", HELLO_CORPUS],
    ("plan", 1): lambda tmp: ["plan", HELLO, "--corpus", _corpus_with_a_dangling_ref(tmp)],
    ("plan", 2): lambda tmp: ["plan", HELLO, "--corpus", str(tmp / "missing")],
    ("run", 0): lambda tmp: ["run", HELLO, HELLO_SCRIPT, "--corpus", HELLO_CORPUS],
    ("run", 1): lambda tmp: ["run", HELLO, _failing_script(tmp), "--corpus", HELLO_CORPUS],
    ("run", 2): lambda tmp: ["run", HELLO, HELLO_SCRIPT, "--corpus", str(tmp / "missing")],
    ("bench", 0): lambda tmp: ["bench", CHAIN3, "3", "--corpus", CHAIN_CORPUS],
    ("bench", 2): lambda tmp: ["bench", CHAIN3, "3", "--corpus", str(tmp / "missing")],
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", sorted(EXITS), ids=lambda case: f"{case[0]}-exit{case[1]}")
def test_every_command_leaves_the_collector_as_the_caller_had_it(capsys, tmp_path, case,
                                                                   enabled):
    argv = EXITS[case](tmp_path)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code = main(argv)
        after = gc.isenabled(), gc.get_freeze_count()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()
    assert (code, after) == (case[1], (enabled, 0))


def test_an_escaping_exception_still_restores_the_collector(monkeypatch):
    def broken(*args):
        raise RuntimeError("broke")

    assert gc.isenabled() and gc.get_freeze_count() == 0
    # Raised inside set-up, then after it, while what set-up built is frozen.
    for name in ("load_corpus", "run_script"):
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, broken)
            with pytest.raises(RuntimeError):
                main(["run", HELLO, HELLO_SCRIPT, "--corpus", HELLO_CORPUS])
        assert gc.isenabled() and gc.get_freeze_count() == 0, name


@pytest.mark.parametrize("enabled, frozen", [(True, False), (False, False), (True, True)],
                         ids=["collector-on", "collector-off", "caller-froze"])
def test_the_script_runs_with_set_up_frozen_only_for_a_caller_with_nothing_frozen(
        capsys, monkeypatch, enabled, frozen):
    """Counted, never timed: set-up is frozen while the script runs only when
    the collector was on and nothing was frozen; a caller's own freeze stays."""
    seen = []

    def run_script_seen(*args):
        seen.append(gc.get_freeze_count())
        return run_script(*args)

    monkeypatch.setattr(cli, "run_script", run_script_seen)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    if frozen:
        gc.freeze()
    before = gc.get_freeze_count()
    try:
        code = main(["run", HELLO, HELLO_SCRIPT, "--corpus", HELLO_CORPUS])
        after = gc.isenabled(), gc.get_freeze_count()
    finally:
        gc.unfreeze()
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()
    assert (code, after) == (0, (enabled, before))
    assert seen[0] > 0 if enabled and not frozen else seen == [before]


def test_the_run_command_builds_with_no_automatic_collection(capsys, tmp_path, monkeypatch):
    """Counted, never timed: a 250-primitive build allocates enough to start
    several automatic collections unless set-up pauses the collector."""
    adl = tmp_path / "chain.fractal.xml"
    adl.write_text(_write_chain(tmp_path / "corpus", 250))
    script = tmp_path / "build.script"
    script.write_text("# build only\n")
    starts, marks = [], []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    # Marks from the first step of the build (reading its inputs) to the end
    # of its last (instantiate).
    real_load, real_instantiate = cli._load_inputs, cli.instantiate

    def load_marked(*args):
        marks.append(len(starts))
        return real_load(*args)

    def instantiate_marked(*args):
        arch = real_instantiate(*args)
        marks.append(len(starts))
        return arch

    monkeypatch.setattr(cli, "_load_inputs", load_marked)
    monkeypatch.setattr(cli, "instantiate", instantiate_marked)
    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        code = main(["run", str(adl), str(script), "--corpus", str(tmp_path / "corpus")])
    finally:
        gc.callbacks.remove(count)
    assert code == 0 and capsys.readouterr().out == "PASS all assertions hold\n"
    begin, end = marks
    assert end - begin == 0, f"collections started during the build: {starts[begin:end]}"
