"""The benchmark harness's selftest runs with the tests: it wraps program
names (``virials.integrate``, ``grid.eval_F``, ``experiments.audit_potential``,
``dynamics.support_radius``, ...) and fails when one of them is renamed or
deleted, which a traced benchmark run would otherwise find first."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "benchmark/selftest.py"], cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
