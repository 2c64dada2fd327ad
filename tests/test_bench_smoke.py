"""Smoke test of the benchmark script against the package in this checkout.

``bench/`` reaches into the package by name (the CLI's split helper, the
train module's ``forward``, the contrast pools, the SBM block matrix), so a
rename there breaks the benchmark without failing any unit test. Each
workload runs one traced round with no time budget.

The tracer finds a function only where the package looks it up as a module
attribute at call time; one bound early (a dispatch table built at import,
say) runs untraced and its per-layer metric reads 0. So every per-layer
metric must be nonzero, except those named below.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Ops the tape no longer has; the benchmark still reports them.
STALE_OPS = {f"tensor.{op}{bwd}_ms" for op in ("gather_rows", "row_dot", "softplus_elem", "weighted_sum")
             for bwd in ("", "_bwd")}
# Each workload makes its graph one way: the preset is generated, the scaled graph loaded.
NOT_REACHED = {"preset-contrast": {"data.load_bundle_ms"},
               "scaled-pipeline": {"data.sbm_generate_ms"}}


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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    zero = {name for name in per_layer if result["metrics"][name]["value"] == 0}
    assert zero <= STALE_OPS | NOT_REACHED[workload], sorted(zero - STALE_OPS - NOT_REACHED[workload])
