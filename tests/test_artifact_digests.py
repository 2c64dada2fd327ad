"""CLI artifacts and contrast-pool refreshes against recorded sha256 digests.

A fixed matrix of ``disamgnn`` commands runs in-process, and every file it
writes, plus every ``--help`` text, is hashed and compared with
``artifact_digests.json``. The matrix: the four backbones with the contrast
term off and on, one run with dropout and no weight decay, ``analyze`` on
the GCN contrast checkpoint, a ``sweep`` with one and with two workers, and
each parser's help.

``refresh_digests.json`` pins ``build_contrast_groups`` on the ``ambiguity``
preset: a GCN trains 10 epochs at lr 0.03, and its embeddings are pooled for
every node, every third node and a shuffled half. Each digest covers the
pools in dict order, the eight arrays of the compiled ``PairPlan`` and the
state the draws leave the generator in.

``graph_digests.json`` pins ``sbm_generate``: the arrays of both presets'
graphs and of one 3-block spec with blocks at probability 0 and 1.

Floating-point results can move with the numeric libraries, so each JSON
records the Python, numpy and scipy versions it was made with, and the tests
skip, naming each mismatch, on any other versions. After a change that is
meant to alter the artifacts, the pools or the graphs, regenerate the files with

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

import disamgnn as d
from disamgnn import cli
from disamgnn.models import BACKBONES

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "artifact_digests.json")
REFRESH_DIGESTS = os.path.join(HERE, "refresh_digests.json")
GRAPH_DIGESTS = os.path.join(HERE, "graph_digests.json")
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


def recorded_digests(path: str) -> dict:
    """The digests recorded in ``path``; skips when they were made with other versions."""
    with open(path) as fh:
        recorded = json.load(fh)
    mismatched = [f"{key} {want} here {versions()[key]}"
                  for key, want in recorded["versions"].items() if versions()[key] != want]
    if mismatched:
        pytest.skip("digests were recorded with other versions: " + ", ".join(mismatched))
    return recorded["digests"]


def refresh_digests() -> dict:
    """sha256 of the pools, pairs and generator state of three preset refreshes."""
    g = d.sbm_generate(d.get_preset("ambiguity"))
    masks = d.make_split(g, np.random.default_rng(0))
    params, _, _ = d.train(d.TrainConfig(lr=0.03, max_epochs=10, seed=0), g, masks)
    emb = d.forward(params, g).embeddings.values
    n = g.num_nodes
    selections = {"all": np.arange(n), "every-third": np.arange(0, n, 3),
                  "shuffled-half": np.random.default_rng(1).permutation(n)[: n // 2]}
    digests = {}
    for name, nodes in selections.items():
        rng = np.random.default_rng(0)
        groups = d.build_contrast_groups(emb, g, nodes, d.DisamConfig(), rng)
        assert any(p.aux_pos.size == d.DisamConfig().aux_samples for p in groups.pools.values())
        h = hashlib.sha256()
        for v, p in groups.pools.items():
            h.update(np.int64(v).tobytes())
            for a in (p.pos, p.neg, p.aux_pos):
                h.update(f"{a.dtype}{a.size};".encode() + a.tobytes())
        plan = groups.pairs()
        for a in (plan.left, plan.right, plan.signs, plan.weights,
                  plan._inv, plan._lo, plan._hi, plan._offsets):
            h.update(f"{a.dtype}{a.size};".encode() + a.tobytes())
        h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
        digests[f"preset refresh {name}"] = h.hexdigest()
    return digests


def graph_digests() -> dict:
    """sha256 of the CSR arrays, features and labels of three generated graphs."""
    specs = {
        "ambiguity preset": d.get_preset("ambiguity"),
        "separated preset": d.get_preset("separated"),
        "3-block spec": d.SbmSpec(
            class_sizes=(45, 30, 12), intra_p=(0.2, 1.0, 0.5),
            inter_p=np.array([[0.0, 0.05, 0.0], [0.05, 0.0, 0.3], [0.0, 0.3, 0.0]]),
            class_means=np.arange(12.0).reshape(3, 4), noise_scale=0.7, seed=9,
        ),
    }
    digests = {}
    for name, spec in specs.items():
        g = d.sbm_generate(spec)
        h = hashlib.sha256(f"{g.num_nodes};{g.num_classes};".encode())
        for a in (g.csr_offsets, g.csr_targets, g.features, g.labels):
            h.update(f"{a.dtype}{a.shape};".encode() + a.tobytes())
        digests[name] = h.hexdigest()
    return digests


def test_cli_artifacts_match_their_recorded_digests(tmp_path, monkeypatch):
    want = recorded_digests(DIGESTS)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    got = artifact_digests(str(tmp_path))
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


def test_preset_refreshes_match_their_recorded_digests():
    assert refresh_digests() == recorded_digests(REFRESH_DIGESTS)


def test_generated_graphs_match_their_recorded_digests():
    assert graph_digests() == recorded_digests(GRAPH_DIGESTS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as root:
        files = {DIGESTS: artifact_digests(root), REFRESH_DIGESTS: refresh_digests(),
                 GRAPH_DIGESTS: graph_digests()}
    for path, digests in files.items():
        with open(path, "w") as fh:
            json.dump({"versions": versions(), "digests": digests}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(digests)} digests to {path}")
