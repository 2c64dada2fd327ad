"""End-to-end command line tests, driven through cli.main in temp dirs.

Everything runs against a small synthetic bundle so the whole module stays
fast; artifact layout, reproducibility, exit codes, and the analyze/sweep
outputs are all exercised through the public argv surface.
"""

import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disamgnn as d
from disamgnn import cli
from disamgnn import data as dataio
from disamgnn import models as M
from disamgnn import regions as R


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    spec = d.SbmSpec(class_sizes=(25, 25, 25), intra_p=0.2, inter_p=0.01,
                     class_means=np.eye(3), noise_scale=0.5, seed=0)
    path = tmp_path_factory.mktemp("data") / "tiny"
    dataio.save_bundle(d.sbm_generate(spec), str(path), name="tiny")
    return str(path)


TRAIN_FLAGS = ("--hidden", "8", "--epochs", "40", "--patience", "40",
               "--warmup", "10", "--refresh", "5", "--threshold", "0.5",
               "--seeds", "0")


def run_train(bundle_dir, out, extra=()):
    return cli.main(["train", "--dataset", bundle_dir, "--out", str(out),
                     *TRAIN_FLAGS, *extra])


@pytest.fixture(scope="module")
def trained(bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "first"
    assert run_train(bundle, out) == 0
    return str(out)


def test_train_builds_the_gcn_adjacency_once_across_seeds(tmp_path, monkeypatch):
    # train, and the metrics forward after it, of both seeds share one graph
    built = []
    build = M.gcn_normalized_adjacency
    monkeypatch.setattr(M, "gcn_normalized_adjacency", lambda g: built.append(g.num_nodes) or build(g))
    argv = ["train", "--dataset", "sbm:ambiguity", "--out", str(tmp_path / "out"),
            "--seeds", "0,1", "--hidden", "8", "--epochs", "3"]
    assert cli.main(argv) == 0
    assert len(built) == 1


def test_cli_defaults_mirror_library_config():
    args = cli.build_parser().parse_args(["train", "--dataset", "x", "--out", "y"])
    assert cli._config_from_args(args, seed=3) == d.TrainConfig(seed=3)
    assert args.seeds == [0]


def test_seed_list_parsing():
    assert cli._parse_seeds("0,1,2") == [0, 1, 2]
    assert cli._parse_seeds("5") == [5]
    parser = cli.build_parser()
    for bad in ("", "a,b", "0,1,0"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["train", "--dataset", "x", "--out", "y",
                               "--seeds", bad])
        assert exc.value.code == 2


def test_gen_bundle_round_trips(tmp_path, capsys):
    out = tmp_path / "amb"
    assert cli.main(["gen", "--preset", "ambiguity", "--out", str(out)]) == 0
    assert "nodes" in capsys.readouterr().out
    loaded, masks = dataio.load_bundle(str(out))
    direct = d.sbm_generate(d.get_preset("ambiguity"))
    assert masks is None
    assert loaded.num_nodes == direct.num_nodes
    assert loaded.num_edges == direct.num_edges
    assert np.array_equal(loaded.labels, direct.labels)
    assert np.array_equal(loaded.features, direct.features)
    assert np.array_equal(loaded.csr_offsets, direct.csr_offsets)
    assert np.array_equal(loaded.csr_targets, direct.csr_targets)


def test_train_writes_expected_artifacts(trained, bundle):
    seed_dir = os.path.join(trained, "seed_0")
    header, rows = read_csv(os.path.join(seed_dir, "history.csv"))
    assert header == list(dataio.HISTORY_COLUMNS)
    assert [int(r[0]) for r in rows] == list(range(40))

    header, rows = read_csv(os.path.join(seed_dir, "ambiguity.csv"))
    assert header == ["node_id", "score", "is_ambiguous"]
    assert len(rows) == 75
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)

    with open(os.path.join(trained, "metrics.json")) as fh:
        summary = json.load(fh)
    assert summary["dataset"] == bundle
    assert summary["backbone"] == "gcn"
    assert summary["seeds"] == [0]
    for split in ("train", "val", "test"):
        for key in ("acc", "macro_f1", "macro_auroc"):
            cell = summary["splits"][split][key]
            assert 0.0 <= cell["mean"] <= 1.0
            assert cell["std"] == 0.0  # single seed


def test_checkpoint_reproduces_reported_test_metrics(trained, bundle):
    g, _ = dataio.load_bundle(bundle)
    masks = dataio.make_split(g, rng=np.random.default_rng([104729, 0]))
    params = dataio.load_checkpoint(os.path.join(trained, "seed_0", "checkpoint"))
    report = d.evaluate(params, g, masks, "test").to_dict()
    with open(os.path.join(trained, "metrics.json")) as fh:
        summary = json.load(fh)
    for key in ("acc", "macro_f1", "macro_auroc"):
        assert summary["splits"]["test"][key]["mean"] == report[key]


def test_rerun_is_byte_identical(trained, bundle, tmp_path):
    again = tmp_path / "again"
    assert run_train(bundle, again) == 0
    for rel in ("metrics.json", "seed_0/history.csv", "seed_0/ambiguity.csv",
                "seed_0/checkpoint.json", "seed_0/checkpoint.bin"):
        assert read_bytes(os.path.join(trained, rel)) == read_bytes(str(again / rel)), rel


def test_unreachable_threshold_selects_no_nodes(bundle, tmp_path):
    out = tmp_path / "thr"
    rc = cli.main(["train", "--dataset", bundle, "--out", str(out),
                   "--hidden", "8", "--epochs", "20", "--patience", "20",
                   "--warmup", "5", "--refresh", "2", "--threshold", "1.0",
                   "--seeds", "0"])
    assert rc == 0
    header, rows = read_csv(str(out / "seed_0" / "history.csv"))
    num_amb = header.index("num_ambiguous")
    contrast = header.index("loss_contrast")
    assert all(r[num_amb] == "0" for r in rows)
    assert all(float(r[contrast]) == 0.0 for r in rows)
    _, amb_rows = read_csv(str(out / "seed_0" / "ambiguity.csv"))
    assert all(r[2] == "0" for r in amb_rows)


def test_loss_weight_flag_changes_the_trajectory(bundle, tmp_path):
    # with a low threshold the contrastive term engages after warmup, so a
    # zero loss weight and the default weight must diverge in the history;
    # both runs still emit the same summary schema for side-by-side diffs
    outs = {}
    for tag, lam in (("off", "0"), ("on", "1.0")):
        out = tmp_path / tag
        rc = cli.main(["train", "--dataset", bundle, "--out", str(out),
                       "--hidden", "8", "--epochs", "30", "--patience", "30",
                       "--warmup", "5", "--refresh", "5", "--threshold", "0.2",
                       "--lambda", lam, "--seeds", "0"])
        assert rc == 0
        outs[tag] = out
    header, on_rows = read_csv(str(outs["on"] / "seed_0" / "history.csv"))
    num_amb = header.index("num_ambiguous")
    contrast = header.index("loss_contrast")
    assert any(int(r[num_amb]) > 0 for r in on_rows)
    assert any(float(r[contrast]) > 0.0 for r in on_rows)
    assert (read_bytes(str(outs["on"] / "seed_0" / "history.csv"))
            != read_bytes(str(outs["off"] / "seed_0" / "history.csv")))
    summaries = []
    for tag in ("off", "on"):
        with open(outs[tag] / "metrics.json") as fh:
            summaries.append(json.load(fh))
    assert summaries[0].keys() == summaries[1].keys()
    assert summaries[0]["splits"].keys() == summaries[1]["splits"].keys()


def test_analyze_writes_group_reports(trained, bundle, tmp_path):
    out = tmp_path / "reports"
    rc = cli.main(["analyze", "--dataset", bundle,
                   "--checkpoint", os.path.join(trained, "seed_0", "checkpoint"),
                   "--ambiguity", os.path.join(trained, "seed_0", "ambiguity.csv"),
                   "--out", str(out)])
    assert rc == 0

    g, _ = dataio.load_bundle(bundle)
    masks = dataio.make_split(g, rng=np.random.default_rng([104729, 0]))
    test_size = int(masks.mask("test").size)

    header, s1 = read_csv(str(out / "strategy1_report.csv"))
    assert header == ["group", "count", "accuracy", "mean_ambiguity"]
    assert sum(int(r[1]) for r in s1) == test_size
    header, s2 = read_csv(str(out / "strategy2_report.csv"))
    assert header == ["group", "count", "accuracy", "mean_ambiguity"]
    assert sum(int(r[1]) for r in s2) <= test_size
    for rows in (s1, s2):
        for r in rows:
            if r[2] != "":
                assert 0.0 <= float(r[2]) <= 1.0

    header, rows = read_csv(str(out / "ambiguity_by_group.csv"))
    assert header == ["strategy", "group", "count", "mean_ambiguity"]
    assert {r[0] for r in rows} == {"strategy1", "strategy2"}


def test_analyze_computes_node_homophily_once(trained, bundle, tmp_path, monkeypatch):
    # both strategies read one neighbor-tier computation from the graph's memo
    calls = []
    homophily = R.node_homophily_vector
    monkeypatch.setattr(R, "node_homophily_vector", lambda g: calls.append(1) or homophily(g))
    ckpt = os.path.join(trained, "seed_0", "checkpoint")
    amb = os.path.join(trained, "seed_0", "ambiguity.csv")
    out = tmp_path / "reports"
    assert cli.main(["analyze", "--dataset", bundle, "--checkpoint", ckpt,
                     "--ambiguity", amb, "--out", str(out)]) == 0
    assert len(calls) == 1
    # the same bytes as each strategy computed alone on a fresh graph
    g, _ = dataio.load_bundle(bundle)
    preds = M.forward(dataio.load_checkpoint(ckpt), g).class_probs.argmax(axis=1)
    scores = dataio.read_ambiguity_csv(amb)[0]
    mask = dataio.make_split(g, rng=np.random.default_rng([104729, 0])).mask("test")
    for tag, strategy in (("strategy1", R.strategy1_groups), ("strategy2", R.strategy2_groups)):
        fresh, _ = dataio.load_bundle(bundle)
        alone = tmp_path / f"{tag}_alone.csv"
        dataio.write_group_report_csv(
            R.group_report(strategy(fresh), preds, fresh.labels, scores, mask), str(alone))
        assert read_bytes(str(alone)) == read_bytes(str(out / f"{tag}_report.csv")), tag


def test_analyze_rejects_mismatched_ambiguity_file(trained, bundle, tmp_path, capsys):
    short = tmp_path / "short.csv"
    with open(short, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "score", "is_ambiguous"])
        for v in range(3):
            writer.writerow([v, "0.5", 0])
    rc = cli.main(["analyze", "--dataset", bundle,
                   "--checkpoint", os.path.join(trained, "seed_0", "checkpoint"),
                   "--ambiguity", str(short), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_names_the_ambiguity_file_without_one_row_per_node(trained, bundle, tmp_path, capsys):
    rows = read_bytes(os.path.join(trained, "seed_0", "ambiguity.csv")).decode().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(rows[:4]) + "\n")
    rc = cli.main(["analyze", "--dataset", bundle,
                   "--checkpoint", os.path.join(trained, "seed_0", "checkpoint"),
                   "--ambiguity", str(short), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("error:") == 1
    assert f"{short} must be 1-D with {len(rows) - 1} rows (one per node), got shape (3,)" in err


def test_analyze_defaults_to_the_checkpoint_split_seed(bundle, tmp_path):
    run = tmp_path / "run"
    assert run_train(bundle, run, extra=("--seeds", "1")) == 0
    seed_dir = run / "seed_1"
    with open(seed_dir / "checkpoint.json") as fh:
        assert json.load(fh)["split_seed"] == 1

    def analyze(tag, *flags):
        out = tmp_path / tag
        assert cli.main(["analyze", "--dataset", bundle,
                         "--checkpoint", str(seed_dir / "checkpoint"),
                         "--ambiguity", str(seed_dir / "ambiguity.csv"),
                         "--out", str(out), *flags]) == 0
        return read_bytes(str(out / "strategy1_report.csv"))

    default = analyze("default")
    assert default == analyze("one", "--split-seed", "1")
    assert default != analyze("zero", "--split-seed", "0")


def edited_checkpoint(trained, base, edit):
    """Copy seed 0's checkpoint to ``base`` with ``edit`` applied to its manifest."""
    with open(os.path.join(trained, "seed_0", "checkpoint.json")) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(str(base) + ".json", "w") as fh:
        json.dump(manifest, fh)
    with open(str(base) + ".bin", "wb") as fh:
        fh.write(read_bytes(os.path.join(trained, "seed_0", "checkpoint.bin")))


def analyze_argv(trained, bundle, base, out):
    return ["analyze", "--dataset", bundle, "--checkpoint", str(base),
            "--ambiguity", os.path.join(trained, "seed_0", "ambiguity.csv"),
            "--out", str(out)]


def single_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


@pytest.mark.parametrize("recorded", ["missing", None, "1", 1.5, -1])
def test_analyze_needs_a_usable_recorded_split_seed(trained, bundle, tmp_path, capsys, recorded):
    def edit(manifest):
        if recorded == "missing":
            del manifest["split_seed"]
        else:
            manifest["split_seed"] = recorded

    base = tmp_path / "checkpoint"
    edited_checkpoint(trained, base, edit)
    argv = analyze_argv(trained, bundle, base, tmp_path / "r")
    capsys.readouterr()
    assert cli.main(argv) == 1
    line = single_error_line(capsys)
    assert "split_seed" in line and f"{base}.json" in line, line
    assert cli.main(argv + ["--split-seed", "0"]) == 0


def test_analyze_rejects_a_negative_split_seed(trained, bundle, tmp_path, capsys):
    out = tmp_path / "r"
    argv = analyze_argv(trained, bundle, os.path.join(trained, "seed_0", "checkpoint"), out)
    capsys.readouterr()
    assert cli.main(argv + ["--split-seed", "-1"]) == 1
    line = single_error_line(capsys)
    assert "--split-seed" in line and "-1" in line, line
    assert not out.exists()


WEIGHT0 = "{'name': 'layer0.weight', 'shape': [3, 8], 'offset': 0}"  # the fixture's first entry


@pytest.mark.parametrize("edit, reason", [
    (lambda m: m["entries"][0].update(name="layerX.weight"),
     f"entry 0 is {{'name': 'layerX.weight', 'shape': [3, 8], 'offset': 0}}, the gcn layout expects {WEIGHT0}"),
    (lambda m: m.pop("entries"), "'entries' must be of type list, got None"),
    (lambda m: m["entries"][0]["shape"].reverse(),
     f"entry 0 is {{'name': 'layer0.weight', 'shape': [8, 3], 'offset': 0}}, the gcn layout expects {WEIGHT0}"),
    (lambda m: m.update(hidden_dim="8"), "'hidden_dim' must be of type int, got '8'"),
    (lambda m: m.update(hidden_dim=True), "'hidden_dim' must be of type int, got True"),
    (lambda m: m.update(backbone=7), "'backbone' must be of type str, got 7"),
    (lambda m: m.update(version=99), "unsupported checkpoint version 99"),
    (lambda m: m["entries"][0].update(offset=False),
     f"entry 0 is {{'name': 'layer0.weight', 'shape': [3, 8], 'offset': False}}, the gcn layout expects {WEIGHT0}"),
    (lambda m: m["entries"][1].update(offset=192.0),
     "entry 1 is {'name': 'layer0.bias', 'shape': [1, 8], 'offset': 192.0}, "
     "the gcn layout expects {'name': 'layer0.bias', 'shape': [1, 8], 'offset': 192}"),
    (lambda m: m["entries"][0]["shape"].__setitem__(0, 3.0),
     f"entry 0 is {{'name': 'layer0.weight', 'shape': [3.0, 8], 'offset': 0}}, the gcn layout expects {WEIGHT0}"),
    (lambda m: m.update(sgc_k=-5), "sgc_k must be None or >= 0"),
    (lambda m: m.update(dtype="<f4"), "unsupported checkpoint dtype '<f4'"),
    # layers of no width: rejected before any Glorot bound is taken over their fans
    (lambda m: m.update(in_dim=0, hidden_dim=0), "in_dim must be >= 1, got 0"),
    (lambda m: m.update(in_dim=-3, hidden_dim=1), "in_dim must be >= 1, got -3"),
    # SGC has no hidden layer, so its layout alone would not catch this
    (lambda m: m.update(backbone="sgc", hidden_dim=-5), "hidden_dim must be >= 1, got -5"),
    (lambda m: m.update(num_classes=0), "num_classes must be >= 1, got 0"),
], ids=["renamed-entry", "no-entries", "transposed-shape", "string-hidden-dim", "bool-hidden-dim",
        "int-backbone", "version-99", "bool-offset", "float-offset", "float-shape", "negative-sgc-k",
        "f4-dtype", "empty-layer", "negative-layer", "sgc-negative-hidden-dim", "no-classes"])
def test_analyze_rejects_a_checkpoint_off_its_layout(trained, bundle, tmp_path, capsys, edit, reason):
    base = tmp_path / "checkpoint"
    edited_checkpoint(trained, base, edit)
    capsys.readouterr()
    assert cli.main(analyze_argv(trained, bundle, base, tmp_path / "r")) == 1
    line = single_error_line(capsys)
    assert line.count(f"{base}.json") == 1 and reason in line, line


def test_train_rejects_splits_without_a_test_key(bundle, tmp_path, capsys):
    broken = str(shutil.copytree(bundle, tmp_path / "bundle"))
    with open(os.path.join(broken, "splits.json"), "w") as fh:
        json.dump({"train": [0, 1, 2], "val": [3, 4, 5]}, fh)
    capsys.readouterr()
    assert run_train(broken, tmp_path / "out") == 1
    line = single_error_line(capsys)
    assert "splits.json" in line and "'test'" in line


@pytest.mark.parametrize("blob, reason", [
    ({"train": [0, 0], "val": [3], "test": [4]}, "train mask contains duplicate node indices"),
    ({"train": [0], "val": [3], "test": [3, 4]}, "split masks overlap"),
    ({"train": [0], "val": [3], "test": []}, "'test' lists no node ids"),
], ids=["repeated-id", "node-in-two-splits", "empty-test"])
def test_train_names_splits_json_when_its_masks_clash(bundle, tmp_path, capsys, blob, reason):
    broken = str(shutil.copytree(bundle, tmp_path / "bundle"))
    with open(os.path.join(broken, "splits.json"), "w") as fh:
        json.dump(blob, fh)
    capsys.readouterr()
    assert run_train(broken, tmp_path / "out") == 1
    assert single_error_line(capsys) == f"error: {os.path.join(broken, 'splits.json')}: {reason}"


@pytest.mark.parametrize("text, name", [
    pytest.param('{"num_nodes": 75,', "meta.json", id="not-json-meta.json"),
    pytest.param('{"num_nodes": 75,', "splits.json", id="not-json-splits.json"),
    pytest.param("[1]", "meta.json", id="a-list-meta.json"),
    pytest.param("[1]", "splits.json", id="a-list-splits.json"),
    pytest.param('{"num_classes": "3"}', "meta.json", id="string-num-classes-meta.json"),
    pytest.param('{"num_classes": 3.0}', "meta.json", id="float-num-classes-meta.json"),
    pytest.param('{"num_classes": true}', "meta.json", id="bool-num-classes-meta.json"),
    pytest.param(b"0\t1\n\xff\t2\n", "edges.tsv", id="not-utf8-edges.tsv"),
    pytest.param(b"1.0,\xff\n", "features.csv", id="not-utf8-features.csv"),
    pytest.param(b"0\n\xff\n", "labels.csv", id="not-utf8-labels.csv"),
])
def test_train_names_a_bundle_json_file_it_cannot_parse(bundle, tmp_path, capsys, name, text):
    broken = str(shutil.copytree(bundle, tmp_path / "bundle"))
    with open(os.path.join(broken, name), "wb") as fh:
        fh.write(text if isinstance(text, bytes) else text.encode())
    capsys.readouterr()
    assert run_train(broken, tmp_path / "out") == 1
    assert single_error_line(capsys).startswith(f"error: {os.path.join(broken, name)}: ")


@pytest.mark.parametrize("text", ['{"format": "disamgnn-checkpoint",', "[1]"],
                         ids=["not-json", "a-list"])
def test_analyze_names_a_checkpoint_manifest_it_cannot_parse(trained, bundle, tmp_path, capsys, text):
    base = tmp_path / "checkpoint"
    edited_checkpoint(trained, base, lambda manifest: None)
    (tmp_path / "checkpoint.json").write_text(text)
    capsys.readouterr()
    assert cli.main(analyze_argv(trained, bundle, base, tmp_path / "r")) == 1
    assert single_error_line(capsys).startswith(f"error: {base}.json: ")


@pytest.mark.parametrize("flag, value, field", [
    ("--lambda", "nan", "loss_weight"),
    ("--lambda", "inf", "loss_weight"),
    ("--tau", "nan", "aux_similarity_min"),
    ("--tau", "inf", "aux_similarity_min"),
    ("--lr", "nan", "lr"),
    ("--lr", "inf", "lr"),
    ("--weight-decay", "nan", "weight_decay"),
    ("--weight-decay", "inf", "weight_decay"),
    ("--dropout", "nan", "dropout"),
    ("--mu", "nan", "memory_decay"),
    ("--threshold", "nan", "score_threshold"),
    ("--eps1", "nan", "pos_ratio"),
    ("--eps2", "nan", "neg_ratio"),
    # integers out of range, checked for every seed before the dataset loads
    ("--hidden", "-4", "hidden_dim"),
    ("--hidden", "0", "hidden_dim"),
    ("--layers", "0", "num_layers"),
    ("--sgc-k", "-1", "sgc_k"),
    ("--seeds", "0,-1", "seed"),
])
def test_train_rejects_non_finite_float_flags(bundle, tmp_path, capsys, flag, value, field):
    capsys.readouterr()
    assert run_train(bundle, tmp_path / "out", (flag, value)) == 1
    line = single_error_line(capsys)
    assert re.search(rf"\b{field}\b", line) and "non-finite loss" not in line, line
    assert not (tmp_path / "out").exists()


def test_train_names_a_labels_file_it_cannot_parse(bundle, tmp_path, capsys):
    broken = str(shutil.copytree(bundle, tmp_path / "bundle"))
    labels = os.path.join(broken, "labels.csv")
    rows = read_bytes(labels).decode().splitlines()
    with open(labels, "w") as fh:
        fh.write("\n".join(rows[:2] + ["x"] + rows[3:]) + "\n")
    capsys.readouterr()
    assert run_train(broken, tmp_path / "out") == 1
    line = single_error_line(capsys)
    assert line.startswith(f"error: {labels}:3: ") and "'x'" in line, line


def test_train_numbers_edge_lines_from_the_top_of_the_file(bundle, tmp_path, capsys):
    # leading blank lines are skipped, but they still count
    broken = str(shutil.copytree(bundle, tmp_path / "bundle"))
    edges = os.path.join(broken, "edges.tsv")
    rows = read_bytes(edges).decode().splitlines()
    with open(edges, "w") as fh:
        fh.write("\n".join(["", ""] + rows[:1] + ["1\tx"] + rows[1:]) + "\n")
    capsys.readouterr()
    assert run_train(broken, tmp_path / "out") == 1
    assert single_error_line(capsys) == f"error: {edges}:4: expected two integer columns"


def test_train_counts_edge_lines_by_newline_only(bundle, tmp_path, capsys):
    # a form feed breaks a line for str.splitlines, not for an editor or the other readers
    broken = str(shutil.copytree(bundle, tmp_path / "bundle"))
    edges = os.path.join(broken, "edges.tsv")
    with open(edges, "w") as fh:
        fh.write("\n\x0c\n0\t1\n1\tx\n")
    capsys.readouterr()
    assert run_train(broken, tmp_path / "out") == 1
    assert single_error_line(capsys) == f"error: {edges}:4: expected two integer columns"


class ArrayMemoryError(MemoryError):
    """Like numpy's allocation error: built from a shape, not from a message."""

    def __init__(self, shape):
        super().__init__(f"Unable to allocate 21.8 TiB for an array with shape {shape}")


def test_analyze_names_the_manifest_whose_model_does_not_fit_in_memory(
        trained, bundle, tmp_path, capsys, monkeypatch):
    def init_model(*args, **kwargs):
        raise ArrayMemoryError((3, 10**12))

    monkeypatch.setattr(dataio, "init_model", init_model)
    base = tmp_path / "checkpoint"
    edited_checkpoint(trained, base, lambda m: m.update(hidden_dim=10**12))
    capsys.readouterr()
    assert cli.main(analyze_argv(trained, bundle, base, tmp_path / "r")) == 1
    assert single_error_line(capsys) == (
        f"error: {base}.json: Unable to allocate 21.8 TiB for an array with shape (3, {10**12})")
    assert not (tmp_path / "r").exists()


def test_train_turns_a_memory_error_into_one_error_line(bundle, tmp_path, capsys, monkeypatch):
    def train(*args):
        raise ArrayMemoryError((75, 10**12))

    monkeypatch.setattr(cli, "train", train)
    capsys.readouterr()
    assert run_train(bundle, tmp_path / "out") == 1
    assert single_error_line(capsys).startswith("error: Unable to allocate 21.8 TiB")


@pytest.mark.parametrize("name, edit, reason", [
    ("edges.tsv", lambda rows: rows + ["0\t999"], "edge (0, 999) has an endpoint outside the 75 nodes"),
    ("labels.csv", lambda rows: rows[:-1], "74 labels for the 75 rows of features.csv"),
    ("features.csv", lambda rows: rows[:4] + ["nan" + rows[4][rows[4].index(","):]] + rows[5:],
     "row 5 holds a non-finite value"),
    ("labels.csv", lambda rows: rows[:9] + ["7"] + rows[10:], "row 10 has label 7, outside [0, 3)"),
], ids=["edge-outside", "labels-short", "features-nan", "label-beyond-classes"])
def test_train_names_the_bundle_file_that_disagrees_with_the_features(
        bundle, tmp_path, capsys, name, edit, reason):
    broken = str(shutil.copytree(bundle, tmp_path / "bundle"))
    path = os.path.join(broken, name)
    rows = read_bytes(path).decode().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(rows)) + "\n")
    capsys.readouterr()
    assert run_train(broken, tmp_path / "out") == 1
    assert single_error_line(capsys) == f"error: {path}: {reason}"


@pytest.mark.parametrize("edit", [lambda blob: blob[:-8], lambda blob: blob + bytes(8)],
                         ids=["truncated", "extended"])
def test_analyze_names_a_checkpoint_blob_of_the_wrong_size(trained, bundle, tmp_path, capsys, edit):
    base = tmp_path / "checkpoint"
    edited_checkpoint(trained, base, lambda manifest: None)
    blob = tmp_path / "checkpoint.bin"
    blob.write_bytes(edit(blob.read_bytes()))
    capsys.readouterr()
    assert cli.main(analyze_argv(trained, bundle, base, tmp_path / "r")) == 1
    line = single_error_line(capsys)
    assert f"{base}.bin" in line, line


def test_analyze_rejects_an_ambiguity_file_with_a_duplicate_row(trained, bundle, tmp_path, capsys):
    rows = read_bytes(os.path.join(trained, "seed_0", "ambiguity.csv")).decode().splitlines()
    bad = tmp_path / "ambiguity.csv"
    bad.write_text("\n".join(rows[:3] + [rows[1]] + rows[4:]) + "\n")  # node 2's row names node 0
    capsys.readouterr()
    rc = cli.main(["analyze", "--dataset", bundle,
                   "--checkpoint", os.path.join(trained, "seed_0", "checkpoint"),
                   "--ambiguity", str(bad), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "duplicate node_id 0" in single_error_line(capsys)


def test_analyze_numbers_ambiguity_lines_past_a_blank_line(trained, bundle, tmp_path, capsys):
    # the csv reader skips the blank line 3, but it still counts
    bad = tmp_path / "ambiguity.csv"
    bad.write_text("node_id,score,is_ambiguous\n0,0.5,0\n\n1,x,0\n")
    capsys.readouterr()
    rc = cli.main(["analyze", "--dataset", bundle,
                   "--checkpoint", os.path.join(trained, "seed_0", "checkpoint"),
                   "--ambiguity", str(bad), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert single_error_line(capsys) == (
        f"error: {bad}:4: expected an integer node_id, a score in [0, 1] and a 0/1 flag")


BEYOND_INT64 = "99999999999999999999"


def test_train_names_an_edge_id_beyond_int64(bundle, tmp_path, capsys):
    broken = str(shutil.copytree(bundle, tmp_path / "bundle"))
    edges = os.path.join(broken, "edges.tsv")
    rows = read_bytes(edges).decode().splitlines()
    with open(edges, "w") as fh:
        fh.write("\n".join(rows[:4] + [f"0\t{BEYOND_INT64}"] + rows[4:]) + "\n")
    capsys.readouterr()
    assert run_train(broken, tmp_path / "out") == 1
    assert single_error_line(capsys) == f"error: {edges}:5: expected two integer columns"


def test_analyze_names_a_node_id_beyond_int64(trained, bundle, tmp_path, capsys):
    rows = read_bytes(os.path.join(trained, "seed_0", "ambiguity.csv")).decode().splitlines()
    bad = tmp_path / "ambiguity.csv"
    bad.write_text("\n".join(rows[:3] + [f"{BEYOND_INT64},0.5,1"] + rows[4:]) + "\n")
    capsys.readouterr()
    rc = cli.main(["analyze", "--dataset", bundle,
                   "--checkpoint", os.path.join(trained, "seed_0", "checkpoint"),
                   "--ambiguity", str(bad), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert single_error_line(capsys).startswith(f"error: {bad}:4: expected an integer node_id")


def test_train_reports_every_split_from_one_forward(bundle, tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return d.forward(*args, **kwargs)

    monkeypatch.setattr(cli, "forward", counted)
    assert run_train(bundle, tmp_path / "out") == 0
    assert len(calls) == 1


SWEEP_FLAGS = ("--param", "lambda", "--values", "0.5,1.5", "--seeds", "0",
               "--hidden", "8", "--epochs", "12", "--patience", "12",
               "--warmup", "4", "--refresh", "2", "--threshold", "0.5")


def test_sweep_emits_one_row_per_value(bundle, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--dataset", bundle, "--out", str(out), *SWEEP_FLAGS])
    assert rc == 0
    header, rows = read_csv(str(out))
    assert header[:3] == ["param", "value", "num_seeds"]
    assert len(header) == 9
    assert [r[0] for r in rows] == ["lambda", "lambda"]
    assert [r[1] for r in rows] == ["0.5", "1.5"]
    assert [r[2] for r in rows] == ["1", "1"]
    for r in rows:
        for cell in r[3:]:
            assert 0.0 <= float(cell) <= 1.0


def test_sweep_casts_values_to_the_field_type(bundle, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--dataset", bundle, "--out", str(out), *SWEEP_FLAGS, "--param", "k-aux"]
    assert cli.main([*argv, "--values", "2,4"]) == 0
    _, rows = read_csv(str(out))
    assert [r[:2] for r in rows] == [["k-aux", "2"], ["k-aux", "4"]]
    out.unlink()
    capsys.readouterr()
    assert cli.main([*argv, "--values", "2.5"]) == 1
    assert "--values" in single_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("param, values", [("k-aux", "2,4,2"), ("lambda", "1,1.0")])
def test_sweep_rejects_a_repeated_value(bundle, tmp_path, capsys, param, values):
    out = tmp_path / "sweeps" / "sweep.csv"
    capsys.readouterr()
    assert cli.main(["sweep", "--dataset", bundle, "--out", str(out), *SWEEP_FLAGS,
                     "--param", param, "--values", values]) == 1
    line = single_error_line(capsys)
    assert "--values" in line and "repeats" in line, line
    assert not out.parent.exists()


@pytest.mark.parametrize("extra, field", [
    (("--param", "hidden", "--values", "8,0"), "hidden_dim"),
    (("--seeds", "0,-1"), "seed"),
], ids=["zero-hidden-cell", "negative-seed"])
def test_sweep_checks_every_cell_before_training(bundle, tmp_path, capsys, extra, field):
    out = tmp_path / "sweeps" / "sweep.csv"
    capsys.readouterr()
    assert cli.main(["sweep", "--dataset", bundle, "--out", str(out), *SWEEP_FLAGS, *extra]) == 1
    assert re.search(rf"\b{field}\b", single_error_line(capsys))
    assert not out.parent.exists()


def test_sweep_parallel_jobs_match_serial(bundle, tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert cli.main(["sweep", "--dataset", bundle, "--out", str(serial),
                     *SWEEP_FLAGS]) == 0
    assert cli.main(["sweep", "--dataset", bundle, "--out", str(parallel),
                     *SWEEP_FLAGS, "--jobs", "2"]) == 0
    assert read_bytes(str(serial)) == read_bytes(str(parallel))


# valid values for a few sweepable flags, floats written as repr so they round-trip
SWEEP_CELLS = {
    "lambda": st.floats(0, 4), "lr": st.floats(1e-3, 0.1), "dropout": st.floats(0, 0.9),
    "threshold": st.floats(0.05, 1), "tau": st.floats(-1, 1),
    "hidden": st.integers(1, 12), "refresh": st.integers(1, 3), "k-aux": st.integers(0, 4),
}


@st.composite
def sweep_cells(draw):
    param = draw(st.sampled_from(sorted(SWEEP_CELLS)))
    values = draw(st.lists(SWEEP_CELLS[param], min_size=1, max_size=3, unique=True))
    seeds = draw(st.lists(st.integers(0, 9), min_size=1, max_size=2, unique=True))
    return ["--param", param, "--values", ",".join(map(repr, values)),
            "--seeds", ",".join(map(str, seeds))]


def test_sweep_jobs_never_change_the_csv(bundle, tmp_path):
    # a small bundle, few epochs and few examples: each example forks two workers
    @settings(max_examples=10, deadline=None, database=None, derandomize=True)
    @given(sweep_cells())
    def check(cells):
        flags = ("--hidden", "6", "--epochs", "6", "--warmup", "1", "--threshold", "0.5", "--lambda", "1",
                 *cells)
        csvs = [tmp_path / f"jobs{jobs}.csv" for jobs in ("1", "2")]
        for out, jobs in zip(csvs, ("1", "2")):
            out.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["sweep", "--dataset", bundle, "--out", str(out), *flags, "--jobs", jobs]) == 0
        assert read_bytes(str(csvs[0])) == read_bytes(str(csvs[1])), cells

    check()


def run_cli(*argv):
    """``python -m disamgnn.cli argv`` in its own interpreter: (exit code, stderr lines)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(d.__file__)))
    proc = subprocess.run([sys.executable, "-m", "disamgnn.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stderr.splitlines()


@pytest.mark.parametrize("flags, line", [
    (("--lr", "1e308"), "error: non-finite class probabilities at epoch 1, lr=1e+308"),
    # Adam's second moments overflow, after which every step would be 0
    (("--weight-decay", "1e308"), "error: non-finite Adam moments at epoch 0, lr=0.001, weight_decay=1e+308"),
], ids=["lr", "weight-decay"])
def test_a_diverging_run_prints_one_error_line_and_no_numpy_warning(tmp_path, flags, line):
    # numpy prints its floating-point warnings to stderr in a fresh interpreter
    code, err = run_cli("train", "--dataset", "sbm:separated", "--epochs", "5", "--out", str(tmp_path), *flags)
    assert (code, err) == (1, [line])


def test_blas_thread_count_leaves_train_artifacts_unchanged(tmp_path):
    # the thread count is read when numpy loads, so each run gets its own interpreter
    src = os.path.dirname(os.path.dirname(os.path.abspath(d.__file__)))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "disamgnn.cli", "train", "--dataset", "sbm:ambiguity",
                        "--lambda", "1", "--epochs", "60", "--warmup", "20", "--refresh", "10",
                        "--out", str(out)], env=env, check=True, capture_output=True, timeout=300)
        runs.append({str(path.relative_to(out)): path.read_bytes()
                     for path in sorted(out.rglob("*")) if path.is_file()})
    assert len(runs[0]) == 5 and runs[0] == runs[1]


def test_sweep_builds_the_adjacency_once_per_worker(bundle, tmp_path, monkeypatch):
    # each worker takes one chunk of cells and so unpickles one graph; the
    # wrapper reaches forked workers through the patched module
    log = tmp_path / "builds.txt"
    build = M.gcn_normalized_adjacency

    def logged(g):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return build(g)

    monkeypatch.setattr(M, "gcn_normalized_adjacency", logged)
    flags = (*SWEEP_FLAGS, "--seeds", "0,1")
    csvs = {}
    for jobs in ("1", "2"):
        log.unlink(missing_ok=True)
        csvs[jobs] = tmp_path / f"sweep_{jobs}.csv"
        assert cli.main(["sweep", "--dataset", bundle, "--out", str(csvs[jobs]),
                         *flags, "--jobs", jobs]) == 0
        pids = log.read_text().split()
        workers = cli._sweep_workers(int(jobs), 4)
        assert len(pids) == workers, jobs
        assert (str(os.getpid()) in pids) == (workers == 1), jobs
    assert read_bytes(str(csvs["1"])) == read_bytes(str(csvs["2"]))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_job(bundle, tmp_path, capsys, jobs):
    out = tmp_path / "sweeps" / "sweep.csv"
    capsys.readouterr()
    assert cli.main(["sweep", "--dataset", bundle, "--out", str(out), *SWEEP_FLAGS,
                     "--jobs", jobs]) == 1
    assert single_error_line(capsys) == f"error: --jobs must be >= 1, got {jobs}"
    assert not out.parent.exists()


def test_sweep_workers_are_bounded_by_cells_and_cpus(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as where no affinity is reported
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli._sweep_workers(1_000_000, 6) == 4
    assert cli._sweep_workers(1_000_000, 3) == 3
    assert cli._sweep_workers(2, 6) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._sweep_workers(8, 6) == 1


def test_sweep_workers_are_bounded_by_the_cpus_the_process_may_use(monkeypatch):
    # as under taskset -c 0 on a 4-CPU host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli._sweep_workers(2, 4) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert cli._sweep_workers(8, 6) == 3


def test_unknown_flags_and_commands_exit_2(tmp_path):
    for argv in (["train", "--dataset", "x", "--out", "y", "--bogus"],
                 ["frobnicate"],
                 []):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_runtime_failures_exit_1(bundle, tmp_path, capsys):
    rc = cli.main(["train", "--dataset", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    rc = cli.main(["sweep", "--dataset", bundle, "--param", "bogus",
                   "--values", "1", "--out", str(tmp_path / "s.csv")])
    assert rc == 1

    with np.errstate(invalid="ignore", over="ignore"):
        rc = cli.main(["train", "--dataset", bundle, "--out", str(tmp_path / "d"),
                       "--lr", "1e200", "--epochs", "5", "--patience", "5",
                       "--hidden", "8", "--seeds", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_dataset_root_env_lookup(bundle, monkeypatch):
    root, name = os.path.split(bundle)
    monkeypatch.setenv("DISAMGNN_DATA", root)
    g, masks = cli.resolve_dataset(name)
    assert g.num_nodes == 75 and masks is None
    with pytest.raises(FileNotFoundError):
        cli.resolve_dataset("no-such-dataset")
    monkeypatch.delenv("DISAMGNN_DATA")
    with pytest.raises(FileNotFoundError):
        cli.resolve_dataset(name)
