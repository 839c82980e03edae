import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fsmguard
from fsmguard import cli
from fsmguard import netlist as nl_mod
from tests.conftest import REF14_DOC, TOGGLE_DOC, log_record
from tests.test_faults import PORT_DEFECTS, break_ports


@pytest.fixture()
def fsm_file(tmp_path):
    p = tmp_path / "ref14.json"
    p.write_text(json.dumps(REF14_DOC))
    return p


@pytest.fixture()
def hardened_dir(tmp_path, fsm_file):
    out = tmp_path / "out"
    rc = cli.main(
        ["harden", "--fsm", str(fsm_file), "--level", "2", "--seed", "7", "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    return out


def test_harden_writes_artifacts(hardened_dir):
    for name in ("netlist.json", "netlist.v", "codebook.json", "hardening_report.json"):
        assert (hardened_dir / name).exists(), name
    report = json.loads((hardened_dir / "hardening_report.json").read_text())
    assert report["protection_level"] == 2
    assert "module" in (hardened_dir / "netlist.v").read_text()


def test_harden_logs_one_record(tmp_path, fsm_file, caplog):
    # the harden record carries the gate count; no free-text line repeats it
    caplog.set_level(logging.INFO, logger="fsmguard")
    out = tmp_path / "out"
    assert cli.main(["harden", "--fsm", str(fsm_file), "--level", "2", "--out", str(out)]) == cli.EXIT_OK
    assert [r.getMessage().split(": ", 1)[0] for r in caplog.records] == ["harden"]
    netlist = nl_mod.from_json_dict(json.loads((out / "netlist.json").read_text()))
    assert log_record(caplog, "harden")["gates"] == len(netlist.gates)


def test_harden_missing_file(tmp_path, capsys):
    rc = cli.main(["harden", "--fsm", str(tmp_path / "nope.json"), "--level", "2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_IO


def test_harden_bad_fsm(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"name": "x", "states": [], "reset": "A", "transitions": []}))
    rc = cli.main(["harden", "--fsm", str(p), "--level", "2", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_FAIL


@pytest.mark.parametrize(
    "doc, where",
    [
        ([REF14_DOC], "the FSM document is a JSON list, not an object"),
        ({**REF14_DOC, "inputs": [{"name": "a", "width": "two"}]}, "inputs[0].width is not an integer"),
        # each of these hardened a wrong FSM or escaped as a TypeError traceback
        ({**REF14_DOC, "states": "AB"}, "FSM error: states is not a list: 'AB'"),
        ({**REF14_DOC, "states": ["S0", ["S1"]]}, "FSM error: states[1] is not a string: ['S1']"),
        ({**REF14_DOC, "states": [1, 2]}, "FSM error: states[0] is not a string: 1"),
        ({**REF14_DOC, "inputs": [{"name": "a", "width": True}]}, "FSM error: inputs[0].width is not an integer: True"),
        # each of these exited with the message of the TypeError or AttributeError it raised
        ({**REF14_DOC, "inputs": ["a"]}, "FSM error: inputs[0] is not an object: 'a'"),
        (
            {**REF14_DOC, "transitions": [{"from": "S0", "guard": [1], "to": "S1"}]},
            "FSM error: transitions[0].guard is not an object: [1]",
        ),
        ({**REF14_DOC, "transitions": ["AB"]}, "FSM error: transitions[0] is not an object: 'AB'"),
        ({**REF14_DOC, "outputs": 5}, "FSM error: outputs is not a list: 5"),
        ({**REF14_DOC, "state_outputs": [1]}, "FSM error: state_outputs is not an object: [1]"),
    ],
    ids=[
        "top-level-list", "input-width", "states-string", "nested-state", "numeric-states", "bool-width",
        "input-string", "guard-list", "transition-string", "outputs-number", "state-outputs-list",
    ],
)
def test_harden_malformed_fsm_located(tmp_path, caplog, doc, where):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    rc = cli.main(["harden", "--fsm", str(p), "--level", "2", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_FAIL
    assert where in caplog.text


@pytest.mark.parametrize(
    "outputs, message",
    [
        (["x_e"], "hardening failed: FSM output 'x_e' clashes with a port of the hardened module"),
        (["fsm_alert"], "hardening failed: FSM output 'fsm_alert' clashes with a port of the hardened module"),
        (["rst_n"], "hardening failed: FSM output 'rst_n' clashes with a port of the hardened module"),
        (["busy", "busy"], "FSM error: duplicate output signal 'busy'"),
        (["busy-1"], "hardening failed: FSM output 'busy-1' is not a Verilog identifier"),
        (["wire"], "hardening failed: FSM output 'wire' is a Verilog keyword"),
        (["alert_out"], "hardening failed: FSM output 'alert_out' clashes with a net of the hardened netlist"),
        (["busy", "st_q_0"], "hardening failed: FSM output 'st_q_0' clashes with a net of the hardened netlist"),
        (["st_q_0_r"], "hardening failed: FSM output 'st_q_0_r' clashes with a net of the hardened netlist"),
    ],
    ids=[
        "x_e", "fsm_alert", "rst_n", "twice", "not-an-identifier",
        "keyword", "alert_out", "flop-q", "flop-reg",
    ],
)
def test_harden_rejects_output_port_name(tmp_path, caplog, outputs, message):
    doc = {**REF14_DOC, "outputs": [{"name": n} for n in outputs], "state_outputs": {}}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = cli.main(["harden", "--fsm", str(p), "--level", "2", "--out", str(out)])
    assert rc == cli.EXIT_FAIL
    assert [r.getMessage() for r in caplog.records] == [message]
    assert not out.exists()


def test_harden_level_one_rejected(fsm_file, tmp_path):
    rc = cli.main(["harden", "--fsm", str(fsm_file), "--level", "1", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_FAIL


def test_harden_kiss2_autodetect(tmp_path):
    p = tmp_path / "m.kiss2"
    p.write_text(".i 1\n.o 1\n.r A\n1 A B 0\n1 B A 1\n")
    rc = cli.main(["harden", "--fsm", str(p), "--level", "2", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_OK


def test_inject_autocover_no_hijack(hardened_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = cli.main(
        [
            "inject",
            "--netlist",
            str(hardened_dir / "netlist.json"),
            "--scope",
            "inputs",
            "--out",
            str(report_path),
        ]
    )
    assert rc == cli.EXIT_OK
    doc = json.loads(report_path.read_text())
    assert doc["totals"]["hijack"] == 0
    assert doc["totals"]["total"] > 0
    out = capsys.readouterr().out
    assert "masked" in out and "detected" in out


def test_inject_diffusion_scope(hardened_dir, tmp_path):
    report_path = tmp_path / "dr.json"
    rc = cli.main(
        [
            "inject",
            "--netlist",
            str(hardened_dir / "netlist.json"),
            "--scope",
            "diffusion",
            "--out",
            str(report_path),
        ]
    )
    doc = json.loads(report_path.read_text())
    assert rc == (cli.EXIT_FAIL if doc["totals"]["hijack"] else cli.EXIT_OK)
    assert doc["metadata"]["scope"] == "diffusion_only"


def test_inject_sampled_mode(hardened_dir, tmp_path):
    report_path = tmp_path / "sr.json"
    rc = cli.main(
        [
            "inject",
            "--netlist",
            str(hardened_dir / "netlist.json"),
            "--scope",
            "inputs",
            "--sample",
            "50",
            "--seed",
            "3",
            "--out",
            str(report_path),
        ]
    )
    assert rc in (cli.EXIT_OK, cli.EXIT_FAIL)
    doc = json.loads(report_path.read_text())
    assert doc["totals"]["total"] == 50
    assert "hijack_rate_ci95" in doc


def test_inject_explicit_trace_file(hardened_dir, tmp_path):
    netlist_doc = json.loads((hardened_dir / "netlist.json").read_text())
    words = netlist_doc["meta"]["autocover_trace"][:4]
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(words))
    rc = cli.main(
        [
            "inject",
            "--netlist",
            str(hardened_dir / "netlist.json"),
            "--scope",
            "inputs",
            "--trace",
            str(trace),
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert rc == cli.EXIT_OK


def test_inject_missing_netlist(tmp_path):
    rc = cli.main(
        ["inject", "--netlist", str(tmp_path / "none.json"), "--out", str(tmp_path / "r.json")]
    )
    assert rc == cli.EXIT_IO


def _truncate_netlist(d, tmp_path):
    path = d / "netlist.json"
    path.write_text('{\n  "name": "x",\n  "gates": [\n}\n')
    return ["--netlist", str(path)], f"{path}:4:1: invalid JSON"


def _drop_gate_input(d, tmp_path):
    path = d / "netlist.json"
    doc = json.loads(path.read_text())
    del doc["gates"][0]["in"]
    path.write_text(json.dumps(doc))
    return ["--netlist", str(path)], f"{path}: gate 0: missing field 'in'"


def _bad_codeword(d, tmp_path):
    path = d / "codebook.json"
    doc = json.loads(path.read_text())
    first = next(iter(doc["state"]["entries"]))
    doc["state"]["entries"][first] = "zz"
    path.write_text(json.dumps(doc))
    return ["--netlist", str(d / "netlist.json")], f"{path}: malformed codebook"


def _trace_word(d, tmp_path, word):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(["1", word]))
    return (
        ["--netlist", str(d / "netlist.json"), "--trace", str(path)],
        f"{path}: trace word 1 ({word!r}) is not a hex word",
    )


def _non_hex_trace_word(d, tmp_path):
    return _trace_word(d, tmp_path, "zz")


def _fractional_trace_word(d, tmp_path):
    return _trace_word(d, tmp_path, 1.7)


def _boolean_trace_word(d, tmp_path):
    return _trace_word(d, tmp_path, True)


def _non_integer_meta(d, tmp_path):
    path = d / "netlist.json"
    doc = json.loads(path.read_text())
    doc["meta"]["k"] = "two"
    path.write_text(json.dumps(doc))
    return ["--netlist", str(path)], "netlist meta field 'k' is not an integer >= 1: 'two'"


@pytest.mark.parametrize(
    "corrupt",
    [
        _truncate_netlist,
        _drop_gate_input,
        _bad_codeword,
        _non_hex_trace_word,
        _fractional_trace_word,
        _boolean_trace_word,
        _non_integer_meta,
    ],
)
def test_inject_malformed_input_located(hardened_dir, tmp_path, caplog, corrupt):
    argv, where = corrupt(hardened_dir, tmp_path)
    rc = cli.main(["inject", *argv, "--scope", "inputs", "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_FAIL
    assert where in caplog.text
    assert not (tmp_path / "r.json").exists()


def test_inject_unknown_error_symbol_located(hardened_dir, tmp_path, caplog):
    path = hardened_dir / "codebook.json"
    doc = json.loads(path.read_text())
    doc["state"]["error"] = "NOWHERE"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    rc = cli.main(["inject", "--netlist", str(hardened_dir / "netlist.json"), "--out", str(out)])
    assert rc == cli.EXIT_FAIL
    assert f"{path}: malformed codebook: error symbol 'NOWHERE' names no entry" in caplog.text
    assert not out.exists()


def _width_fraction(doc):
    doc["width"] = 1.5
    return "width is not an integer >= 1: 1.5"


def _level_bool(doc):
    doc["protection_level"] = True
    return "protection_level is not an integer >= 1: True"


def _wide_word(doc):
    first = next(iter(doc["entries"]))
    doc["entries"][first] = format(1 << doc["width"], "x")
    return f"codeword {1 << doc['width']:x} of {first!r} does not fit width {doc['width']}"


def _shared_word(doc):
    first, second = list(doc["entries"])[:2]
    doc["entries"][second] = doc["entries"][first]
    return f"symbols {first!r} and {second!r} share codeword {int(doc['entries'][first], 16):x}"


@pytest.mark.parametrize("corrupt", [_width_fraction, _level_bool, _wide_word, _shared_word])
def test_inject_malformed_codebook_located(hardened_dir, tmp_path, caplog, corrupt):
    doc = json.loads((hardened_dir / "codebook.json").read_text())
    message = corrupt(doc["state"])
    path = tmp_path / "cb.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    argv = ["inject", "--netlist", str(hardened_dir / "netlist.json"), "--codebook", str(path)]
    assert cli.main([*argv, "--scope", "inputs", "--out", str(out)]) == cli.EXIT_FAIL
    assert f"{path}: malformed codebook: {message}" in caplog.text
    assert not out.exists()


def test_inject_logs_throughput_not_in_report(hardened_dir, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="fsmguard")
    out = tmp_path / "r.json"
    argv = ["inject", "--netlist", str(hardened_dir / "netlist.json"), "--scope", "inputs"]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    total = json.loads(out.read_text())["totals"]["total"]
    record = log_record(caplog, "campaign")
    assert record["experiments"] == total > 0
    assert record["experiments_per_s"] == pytest.approx(total / record["wall_s"])
    first = out.read_bytes()
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == first


@pytest.mark.parametrize("corrupt", [_truncate_netlist, _drop_gate_input])
def test_simulate_malformed_netlist_located(hardened_dir, tmp_path, caplog, corrupt):
    argv, where = corrupt(hardened_dir, tmp_path)
    rc = cli.main(["simulate", "--target", argv[1]])
    assert rc == cli.EXIT_FAIL
    assert where in caplog.text


@pytest.mark.parametrize("doc", [5, "gates"], ids=["number", "string"])
def test_simulate_non_object_json_located(tmp_path, caplog, capsys, doc):
    p = tmp_path / "target.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--target", str(p)]) == cli.EXIT_FAIL
    assert f"the FSM document is a JSON {type(doc).__name__}, not an object" in caplog.text
    assert capsys.readouterr().out == ""


def test_simulate_fsm(tmp_path, capsys):
    p = tmp_path / "toggle.json"
    p.write_text(json.dumps(TOGGLE_DOC))
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([{"t": 1}, {"t": 0}, {"t": 1}]))
    rc = cli.main(["simulate", "--target", str(p), "--trace", str(trace)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out.split()
    assert "S1" in out and "S0" in out


@pytest.mark.parametrize(
    "trace, message",
    [
        (5, "the trace is not a list of assignments: 5"),
        ([{"t": 1}, 5], "step 1: assignment is not an object: 5"),
        ([{"t": 1}, {"t": "1"}], "step 1: signal 't' is not a 1-bit integer: '1'"),
    ],
    ids=["number", "non-object-entry", "string-value"],
)
def test_simulate_malformed_trace_located(tmp_path, caplog, capsys, trace, message):
    p = tmp_path / "toggle.json"
    p.write_text(json.dumps(TOGGLE_DOC))
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    assert cli.main(["simulate", "--target", str(p), "--trace", str(path)]) == cli.EXIT_FAIL
    assert [r.getMessage() for r in caplog.records] == [f"simulation failed: {message}"]
    assert capsys.readouterr().out == ""


def test_simulate_netlist_autocover(hardened_dir, capsys):
    rc = cli.main(["simulate", "--target", str(hardened_dir / "netlist.json")])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "S0" in out and "alert=0" in out


def test_simulate_fsm_autocover_matches_netlist(fsm_file, hardened_dir, capsys):
    # the default trace of an FSM target is the walk that the hardened
    # netlist's auto-cover words encode, so both print one trajectory
    assert cli.main(["simulate", "--target", str(fsm_file)]) == cli.EXIT_OK
    spec_rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert cli.main(["simulate", "--target", str(hardened_dir / "netlist.json")]) == cli.EXIT_OK
    netlist_rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
    assert len(spec_rows) > 10
    assert spec_rows == netlist_rows


@pytest.mark.parametrize("command", ["inject", "simulate"])
def test_missing_trace_exits_io(hardened_dir, tmp_path, caplog, command):
    netlist, out = str(hardened_dir / "netlist.json"), tmp_path / "r.json"
    target = ["--netlist", netlist, "--out", str(out)] if command == "inject" else ["--target", netlist]
    assert cli.main([command, *target, "--trace", str(tmp_path / "missing.json")]) == cli.EXIT_IO
    assert "cannot read inputs: " in caplog.text and "missing.json" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["harden", "inject"])
def test_unwritable_out_exits_io(fsm_file, hardened_dir, tmp_path, caplog, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out"
    if command == "harden":
        argv = ["harden", "--fsm", str(fsm_file), "--level", "2"]
    else:
        argv = ["inject", "--netlist", str(hardened_dir / "netlist.json"), "--scope", "inputs"]
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_IO
    assert f"cannot write {out}: " in caplog.text
    assert capsys.readouterr().out == ""


def test_entry_point_installed(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    package_parent = Path(fsmguard.__file__).resolve().parent.parent
    pyproject = package_parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["fsmguard"]
    module, function = target.split(":")
    # Run the declared target through the interpreter with the shim pip writes
    # into the console script, so the test needs no install and no PATH entry.
    shim = f"import sys; from {module} import {function}; sys.exit({function}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package_parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", shim, "--help"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # match the subcommand lines: the description's "fault injection" would
    # satisfy a bare substring check for "inject"
    for name in ("harden", "inject"):
        assert re.search(rf"^\s+{name}\s", proc.stdout, re.M), proc.stdout


def test_import_loads_no_numpy(tmp_path):
    # the package declares no runtime dependency, so importing it must not
    # pull numpy in through any module
    env = dict(os.environ, PYTHONPATH=str(Path(fsmguard.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", 'import fsmguard, sys; assert "numpy" not in sys.modules'],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _misfit_trace(d, tmp_path, misfit):
    """The auto-cover trace with every word changed by ``misfit(word, width)``."""
    netlist = nl_mod.from_json_dict(json.loads((d / "netlist.json").read_text()))
    width = len(netlist.port("x_e").bits)
    words = [misfit(int(w, 16), width) for w in netlist.meta["autocover_trace"]]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps([f"{w:x}" for w in words]))
    return path, f"trace word 0 ({words[0]:#x}) does not fit the {width}-bit port x_e"


_MISFITS = {"wide": lambda w, width: w | 1 << width, "negative": lambda w, width: -1}


@pytest.mark.parametrize("misfit", list(_MISFITS))
def test_inject_rejects_word_outside_x_e(hardened_dir, tmp_path, caplog, misfit):
    trace, message = _misfit_trace(hardened_dir, tmp_path, _MISFITS[misfit])
    out = tmp_path / "r.json"
    argv = ["inject", "--netlist", str(hardened_dir / "netlist.json"), "--trace", str(trace)]
    assert cli.main([*argv, "--scope", "inputs", "--out", str(out)]) == cli.EXIT_FAIL
    assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("misfit", list(_MISFITS))
def test_simulate_rejects_word_outside_x_e(hardened_dir, tmp_path, caplog, capsys, misfit):
    trace, message = _misfit_trace(hardened_dir, tmp_path, _MISFITS[misfit])
    rc = cli.main(["simulate", "--target", str(hardened_dir / "netlist.json"), "--trace", str(trace)])
    assert rc == cli.EXIT_FAIL
    assert message in caplog.text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("defect", list(PORT_DEFECTS))
def test_port_defects_exit_1(hardened_dir, tmp_path, caplog, capsys, defect):
    path = hardened_dir / "netlist.json"
    path.write_text(json.dumps(break_ports(json.loads(path.read_text()), defect)))
    out = tmp_path / "r.json"
    assert cli.main(["inject", "--netlist", str(path), "--scope", "inputs", "--out", str(out)]) == cli.EXIT_FAIL
    assert cli.main(["simulate", "--target", str(path)]) == cli.EXIT_FAIL
    assert caplog.text.count(PORT_DEFECTS[defect]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_inject_rejects_duplicate_effect(hardened_dir, tmp_path, caplog):
    out = tmp_path / "r.json"
    argv = ["inject", "--netlist", str(hardened_dir / "netlist.json"), "--scope", "inputs"]
    assert cli.main([*argv, "--effects", "flip,flip", "--out", str(out)]) == cli.EXIT_FAIL
    assert "duplicate effect 'flip' in the campaign spec" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-5", "many"])
def test_inject_sample_must_be_positive(hardened_dir, tmp_path, capsys, count):
    out = tmp_path / "r.json"
    argv = ["inject", "--netlist", str(hardened_dir / "netlist.json"), "--sample", count]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(out)])
    assert exc.value.code == 2  # argparse's usage error
    assert "--sample" in capsys.readouterr().err
    assert not out.exists()


def test_import_loads_no_logging(tmp_path):
    # run_campaign logs through logging only once the application has loaded
    # it, so that a plain import does not pay for it (about 8 ms and 0.6 MB)
    env = dict(os.environ, PYTHONPATH=str(Path(fsmguard.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", 'import fsmguard, sys; assert "logging" not in sys.modules'],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
