"""The benchmark's own self-test, run as part of the test suite.

``bench/selftest.py`` checks the benchmark's measurements on a toy FSM and
pins the gate counts and autocover trace length of the synthetic big32,
big100 and big300 designs, so it also guards hardening of large FSMs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
