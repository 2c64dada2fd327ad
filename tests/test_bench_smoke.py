"""Smoke test of the benchmark script against the package in this checkout.

``bench/`` reaches into the package by name (the CLI's split helper, the
train module's ``forward``, the contrast pools, the SBM block matrix), so a
rename there breaks the benchmark without failing any unit test. Each
workload runs one traced round with no time budget.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["preset-contrast", "scaled-pipeline"])
def test_bench_runs_one_traced_round(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stdout
