"""CLI artifacts against recorded sha256 digests.

A fixed matrix of ``disamgnn`` commands runs in-process, and every file it
writes, plus every ``--help`` text, is hashed and compared with
``artifact_digests.json``. The matrix: the four backbones with the contrast
term off and on, one run with dropout and no weight decay, ``analyze`` on
the GCN contrast checkpoint, a ``sweep`` with one and with two workers, and
each parser's help.

Floating-point results can move with the numeric libraries, so the JSON
records the Python, numpy and scipy versions it was made with, and the test
skips, naming each mismatch, on any other versions. After a change that is
meant to alter the artifacts, regenerate the file with

    PYTHONPATH=src python tests/test_artifact_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys

import numpy as np
import pytest
import scipy

from disamgnn import cli
from disamgnn.models import BACKBONES

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifact_digests.json")
TRAIN = ("--dataset", "sbm:ambiguity", "--epochs", "30", "--warmup", "10", "--refresh", "10")
SWEEP = ("sweep", "--dataset", "sbm:ambiguity", "--param", "lambda", "--values", "0,1",
         "--seeds", "0,1", "--epochs", "20", "--warmup", "5", "--refresh", "5")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_cli(argv) -> str:
    """Run ``disamgnn argv`` in-process; its stdout, which for ``--help`` is the text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits after printing help
            code = exc.code
    assert code == 0, (argv, code)
    return out.getvalue()


def artifact_digests(root: str) -> dict:
    """sha256 of each file the matrix writes under ``root`` and of each help text."""
    digests = {}
    for command in ((), ("train",), ("analyze",), ("sweep",), ("gen",)):
        text = run_cli([*command, "--help"])
        digests[" ".join(("disamgnn", *command, "--help"))] = hashlib.sha256(text.encode()).hexdigest()

    def out(name):
        return os.path.join(root, name)

    for backbone in BACKBONES:
        for weight in ("0", "1"):
            run_cli(["train", *TRAIN, "--backbone", backbone, "--lambda", weight,
                     "--out", out(f"train-{backbone}-lambda{weight}")])
    run_cli(["train", *TRAIN, "--lambda", "1", "--weight-decay", "0", "--dropout", "0.3",
             "--out", out("train-gcn-dropout")])
    seed_dir = out("train-gcn-lambda1/seed_0")
    run_cli(["analyze", "--dataset", "sbm:ambiguity", "--checkpoint", f"{seed_dir}/checkpoint",
             "--ambiguity", f"{seed_dir}/ambiguity.csv", "--out", out("analyze")])
    for jobs in ("1", "2"):
        run_cli([*SWEEP, "--jobs", jobs, "--out", out(f"sweep-jobs{jobs}/sweep.csv")])

    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def test_cli_artifacts_match_their_recorded_digests(tmp_path, monkeypatch):
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    mismatched = [f"{key} {want} here {versions()[key]}"
                  for key, want in recorded["versions"].items() if versions()[key] != want]
    if mismatched:
        pytest.skip("digests were recorded with other versions: " + ", ".join(mismatched))
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    got = artifact_digests(str(tmp_path))
    want = recorded["digests"]
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as root:
        blob = {"versions": versions(), "digests": artifact_digests(root)}
    with open(DIGESTS, "w") as fh:
        json.dump(blob, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(blob['digests'])} digests to {DIGESTS}")
