"""Smoke tests: the narrative demos run as scripts and print their results.

Demo 06 reaches into the numeric backend by private names, so this is where
a change to those internals shows up.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_demo_path_tracking():
    out = _run_demo("06_path_tracking.py")
    statuses = [line.rsplit("status:", 1)[1].strip() for line in out.splitlines() if "status:" in line]
    assert statuses == ["converged", "converged", "diverged"]
    assert "endpoint +1.000000" in out and "endpoint -1.000000" in out


def test_demo_twisted_cubic_segre():
    out = _run_demo("01_twisted_cubic_segre.py")
    assert "symbolic residual degrees (level -> degree): {2: 1, 3: 0}" in out
    assert "numeric residual degrees: {2: 1, 3: 0}" in out
    assert out.count("(3, -10)") >= 2
