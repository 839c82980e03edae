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
from tests.conftest import REF14_DOC, TOGGLE_DOC


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


def test_harden_missing_file(tmp_path, capsys):
    rc = cli.main(["harden", "--fsm", str(tmp_path / "nope.json"), "--level", "2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_IO


def test_harden_bad_fsm(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"name": "x", "states": [], "reset": "A", "transitions": []}))
    rc = cli.main(["harden", "--fsm", str(p), "--level", "2", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_FAIL


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


def _non_hex_trace_word(d, tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(["1", "zz"]))
    return (
        ["--netlist", str(d / "netlist.json"), "--trace", str(path)],
        f"{path}: trace word 1 ('zz') is not a hex word",
    )


@pytest.mark.parametrize(
    "corrupt", [_truncate_netlist, _drop_gate_input, _bad_codeword, _non_hex_trace_word]
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


def test_inject_logs_throughput_not_in_report(hardened_dir, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="fsmguard")
    out = tmp_path / "r.json"
    argv = ["inject", "--netlist", str(hardened_dir / "netlist.json"), "--scope", "inputs"]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    total = json.loads(out.read_text())["totals"]["total"]
    assert re.search(rf"campaign: {total} experiments in \d+\.\d{{3}} s \(\d+/s\)", caplog.text)
    first = out.read_bytes()
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == first


@pytest.mark.parametrize("corrupt", [_truncate_netlist, _drop_gate_input])
def test_simulate_malformed_netlist_located(hardened_dir, tmp_path, caplog, corrupt):
    argv, where = corrupt(hardened_dir, tmp_path)
    rc = cli.main(["simulate", "--target", argv[1]])
    assert rc == cli.EXIT_FAIL
    assert where in caplog.text


def test_simulate_fsm(tmp_path, capsys):
    p = tmp_path / "toggle.json"
    p.write_text(json.dumps(TOGGLE_DOC))
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([{"t": 1}, {"t": 0}, {"t": 1}]))
    rc = cli.main(["simulate", "--target", str(p), "--trace", str(trace)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out.split()
    assert "S1" in out and "S0" in out


def test_simulate_netlist_autocover(hardened_dir, capsys):
    rc = cli.main(["simulate", "--target", str(hardened_dir / "netlist.json")])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "S0" in out and "alert=0" in out


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
