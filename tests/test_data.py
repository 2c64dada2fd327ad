"""Bundle, split, SBM, checkpoint, and CSV serialization tests.

The SBM homophily check derives the expected value analytically from the
binomial degree distributions and compares a 20-seed Monte-Carlo estimate
against it.
"""

import json
import os

import numpy as np
import pytest
import scipy.stats

import disamgnn as d
from disamgnn import data as dataio


def toy_graph(n=12, num_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.3]
    labels = np.arange(n) % num_classes
    return d.build_graph(edges, rng.normal(size=(n, 3)), labels, num_classes)


# ---------------------------------------------------------------------------
# bundles


def test_bundle_round_trip_with_masks(tmp_path):
    g = toy_graph(n=40)
    masks = d.make_split(g, rng=np.random.default_rng(1))
    path = str(tmp_path / "toy")
    d.save_bundle(g, path, masks=masks, name="toy")
    g2, masks2 = d.load_bundle(path)
    assert g2.num_nodes == g.num_nodes
    assert g2.num_classes == g.num_classes
    assert np.array_equal(g2.features, g.features)
    assert np.array_equal(g2.labels, g.labels)
    assert np.array_equal(g2.csr_offsets, g.csr_offsets)
    assert np.array_equal(g2.csr_targets, g.csr_targets)
    assert np.array_equal(masks2.train, masks.train)
    assert np.array_equal(masks2.val, masks.val)
    assert np.array_equal(masks2.test, masks.test)


def write_minimal_bundle(path, edges_text="0 1\n", n=2):
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "edges.tsv"), "w") as fh:
        fh.write(edges_text)
    with open(os.path.join(path, "features.csv"), "w") as fh:
        for i in range(n):
            fh.write(f"{float(i)},1.0\n")
    with open(os.path.join(path, "labels.csv"), "w") as fh:
        for i in range(n):
            fh.write(f"{i % 2}\n")


def test_bundle_load_deduplicates_edges(tmp_path):
    path = str(tmp_path / "dup")
    write_minimal_bundle(path, edges_text="0 1\n1 0\n0 1\n")
    g, masks = d.load_bundle(path)
    assert g.num_edges == 1
    assert masks is None


def test_bundle_error_cases(tmp_path):
    with pytest.raises(FileNotFoundError):
        d.load_bundle(str(tmp_path / "nowhere"))

    path = str(tmp_path / "incomplete")
    write_minimal_bundle(path)
    os.remove(os.path.join(path, "labels.csv"))
    with pytest.raises(FileNotFoundError):
        d.load_bundle(path)

    path = str(tmp_path / "ragged")
    write_minimal_bundle(path)
    with open(os.path.join(path, "features.csv"), "a") as fh:
        fh.write("1.0,2.0,3.0\n")
    with pytest.raises(ValueError):
        d.load_bundle(path)

    path = str(tmp_path / "badlabel")
    write_minimal_bundle(path)
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump({"num_classes": 2}, fh)
    with open(os.path.join(path, "labels.csv"), "w") as fh:
        fh.write("0\n5\n")
    with pytest.raises(ValueError):
        d.load_bundle(path)

    path = str(tmp_path / "metamismatch")
    write_minimal_bundle(path)
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump({"num_nodes": 99}, fh)
    with pytest.raises(ValueError):
        d.load_bundle(path)

    for value in ("2", 2.0, True, 1):
        path = str(tmp_path / f"num-classes-{value!r}")
        write_minimal_bundle(path)
        with open(os.path.join(path, "meta.json"), "w") as fh:
            json.dump({"num_classes": value}, fh)
        with pytest.raises(ValueError) as exc:
            d.load_bundle(path)
        assert str(exc.value).startswith(os.path.join(path, "meta.json"))
        assert "num_classes" in str(exc.value)


@pytest.mark.parametrize("blob, key", [
    ({"train": [0], "val": [1]}, "test"),
    ({"train": [0], "val": [1], "test": 1}, "test"),
    ({"train": [0], "val": None, "test": [1]}, "val"),
    ({"train": ["0"], "val": [], "test": [1]}, "train"),
    ({"train": [0.0], "val": [], "test": [1]}, "train"),
    ([[0], [1], []], "list"),
    ({"train": [0], "val": [], "test": [1, 7]}, "test"),
], ids=["no-test", "scalar-test", "null-val", "string-ids", "float-ids", "not-an-object",
        "id-outside-graph"])
def test_bundle_rejects_malformed_splits(tmp_path, blob, key):
    path = str(tmp_path / "splits")
    write_minimal_bundle(path)
    with open(os.path.join(path, "splits.json"), "w") as fh:
        json.dump(blob, fh)
    with pytest.raises(ValueError) as exc:
        d.load_bundle(path)
    assert str(exc.value).startswith(os.path.join(path, "splits.json"))
    assert repr(key) in str(exc.value)


def cora_path():
    root = os.environ.get("DISAMGNN_DATA", "data")
    return os.path.join(root, "cora")


def test_cora_bundle_shape_if_available():
    path = cora_path()
    if not os.path.isdir(path):
        pytest.skip(f"no Cora bundle at {path}")
    g, masks = d.load_bundle(path)
    assert g.num_nodes == 2708
    assert g.num_classes == 7
    assert g.num_features == 1433
    assert g.num_edges == 5278


# ---------------------------------------------------------------------------
# splits


def test_split_ratio_example_five_ten_eighty_five():
    g = toy_graph(n=100)
    masks = d.make_split(g, rng=np.random.default_rng(2))
    assert masks.train.size == 5
    assert masks.val.size == 10
    assert masks.test.size == 85
    union = np.union1d(np.union1d(masks.train, masks.val), masks.test)
    assert np.array_equal(union, np.arange(100))


def test_split_rejects_a_graph_too_small_for_three_parts():
    # 5% of 8 nodes rounds to an empty train split
    g = toy_graph(n=8)
    with pytest.raises(ValueError, match="must all be >= 1"):
        d.make_split(g, rng=np.random.default_rng(0))


def test_split_stratification_within_one_node():
    rng = np.random.default_rng(3)
    sizes = [120, 60, 20]
    labels = np.repeat([0, 1, 2], sizes)
    g = d.build_graph([(0, 1)], rng.normal(size=(200, 2)), labels, 3)
    masks = d.make_split(g, rng=np.random.default_rng(4))
    for c, size in enumerate(sizes):
        got = int(np.sum(g.labels[masks.train] == c))
        exact = 0.05 * size
        assert abs(got - exact) <= 1.0, f"class {c}: {got} vs {exact}"
        assert got >= 1


def test_split_guarantees_train_node_for_rare_classes():
    labels = np.repeat([0, 1, 2], [96, 2, 2])
    g = d.build_graph([(0, 1)], np.zeros((100, 2)), labels, 3)
    masks = d.make_split(g, rng=np.random.default_rng(5))
    for c in range(3):
        assert np.sum(g.labels[masks.train] == c) >= 1


def test_split_requires_every_class_present():
    labels = np.zeros(100, dtype=np.int64)
    labels[50:] = 1
    g = d.build_graph([(0, 1)], np.zeros((100, 2)), labels, 3)
    with pytest.raises(ValueError):
        d.make_split(g, rng=np.random.default_rng(6))


def test_split_deterministic_under_seed():
    g = toy_graph(n=100)
    a = d.make_split(g, rng=np.random.default_rng(7))
    b = d.make_split(g, rng=np.random.default_rng(7))
    c = d.make_split(g, rng=np.random.default_rng(8))
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.val, b.val)
    assert np.array_equal(a.test, b.test)
    assert not np.array_equal(a.train, c.train)


# ---------------------------------------------------------------------------
# stochastic block model


def test_sbm_zero_probabilities_give_edgeless_graph():
    spec = d.SbmSpec(class_sizes=(5, 5), intra_p=0.0, inter_p=0.0,
                     class_means=np.eye(2), seed=1)
    g = d.sbm_generate(spec)
    assert g.num_edges == 0
    assert g.num_nodes == 10


def test_sbm_certain_intra_block_forms_triangle():
    spec = d.SbmSpec(class_sizes=(3, 2), intra_p=(1.0, 0.0), inter_p=0.0,
                     class_means=np.eye(2), seed=2)
    g = d.sbm_generate(spec)
    assert g.num_edges == 3
    assert g.neighbors(0).tolist() == [1, 2]
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.neighbors(2).tolist() == [0, 1]


def test_sbm_deterministic_under_seed():
    spec = d.separated_preset(seed=5)
    g1 = d.sbm_generate(spec)
    g2 = d.sbm_generate(spec)
    assert np.array_equal(g1.features, g2.features)
    assert np.array_equal(g1.csr_targets, g2.csr_targets)
    g3 = d.sbm_generate(d.separated_preset(seed=6))
    assert not np.array_equal(g1.features, g3.features)


def test_sbm_zero_noise_features_are_class_means():
    means = np.array([[1.0, 2.0], [3.0, 4.0]])
    spec = d.SbmSpec(class_sizes=(3, 3), intra_p=0.5, inter_p=0.1,
                     class_means=means, noise_scale=0.0, seed=3)
    g = d.sbm_generate(spec)
    assert np.array_equal(g.features, means[g.labels])
    assert g.labels.tolist() == [0, 0, 0, 1, 1, 1]


def test_block_probability_matrix_layout_and_validation():
    spec = d.SbmSpec(class_sizes=(4, 4, 4), intra_p=(0.5, 0.6, 0.7),
                     inter_p=0.1, class_means=np.eye(3), seed=0)
    probs = d.block_probability_matrix(spec)
    assert np.allclose(np.diag(probs), [0.5, 0.6, 0.7])
    off = probs[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.1)

    bad = d.SbmSpec(class_sizes=(4, 4), intra_p=0.5,
                    inter_p=np.array([[0.0, 0.1], [0.2, 0.0]]),
                    class_means=np.eye(2), seed=0)
    with pytest.raises(ValueError):
        d.block_probability_matrix(bad)
    with pytest.raises(ValueError):
        d.block_probability_matrix(
            d.SbmSpec((4, 4), 1.5, 0.1, np.eye(2), seed=0))


def test_sbm_spec_validation():
    with pytest.raises(ValueError):
        d.sbm_generate(d.SbmSpec((5,), 0.1, 0.1, np.eye(1), seed=0))
    with pytest.raises(ValueError):
        d.sbm_generate(d.SbmSpec((5, 0), 0.1, 0.1, np.eye(2), seed=0))
    with pytest.raises(ValueError):
        d.sbm_generate(d.SbmSpec((5, 5), 0.1, 0.1, np.eye(3), seed=0))


def expected_graph_homophily(sizes, intra, inter):
    """Analytic expectation from the binomial neighbor-count distributions.

    For a node of class c the same-class degree is Bin(n_c - 1, intra) and
    the cross-class degree Bin(n - n_c, inter); isolated nodes are excluded
    from the graph-level mean, matching graph_homophily.
    """
    n = sum(sizes)
    num = 0.0
    den = 0.0
    for nc in sizes:
        s = np.arange(nc)
        t = np.arange(n - nc + 1)
        ps = scipy.stats.binom.pmf(s, nc - 1, intra)
        pt = scipy.stats.binom.pmf(t, n - nc, inter)
        ss, tt = np.meshgrid(s, t, indexing="ij")
        frac = np.where(ss + tt > 0, ss / np.maximum(ss + tt, 1), 0.0)
        num += nc * float(np.outer(ps, pt).ravel() @ frac.ravel())
        den += nc * (1.0 - float(ps[0] * pt[0]))
    return num / den


def test_sbm_homophily_matches_analytic_expectation():
    sizes = (300, 300, 60)
    intra, inter = 0.02, 0.002
    expected = expected_graph_homophily(sizes, intra, inter)
    # Any fixed 20-seed batch carries the usual ~5% false-alarm risk at two
    # standard errors; this batch sits well inside the band (z ~ 0.5) while
    # a wrong generator lands tens of SEs away.
    values = []
    for seed in range(20, 40):
        spec = d.SbmSpec(class_sizes=sizes, intra_p=intra, inter_p=inter,
                         class_means=np.eye(3), seed=seed)
        values.append(d.graph_homophily(d.sbm_generate(spec)))
    mean = np.mean(values)
    se = np.std(values, ddof=1) / np.sqrt(len(values))
    assert abs(mean - expected) <= 2.0 * se, (
        f"MC mean {mean:.5f} vs expected {expected:.5f} (SE {se:.5f})")


def test_preset_structure():
    amb = d.get_preset("ambiguity")
    assert amb.class_sizes == (300, 300, 60)
    inter = np.asarray(amb.inter_p)
    # the minority couples to each major five times as strongly as the
    # majors couple to each other
    assert inter[0, 2] == inter[1, 2] == 5 * inter[0, 1]
    assert np.array_equal(amb.class_means, np.eye(3))

    sep = d.get_preset("separated")
    assert sep.class_sizes == (100, 100, 100)
    assert sep.intra_p == 0.05
    assert sep.inter_p == 0.002
    assert sep.noise_scale == 0.5

    with pytest.raises(ValueError):
        d.get_preset("bogus")
    assert set(d.PRESET_NAMES) == {"ambiguity", "separated"}


# ---------------------------------------------------------------------------
# checkpoints


def random_params(backbone="gin", seed=7):
    rng = np.random.default_rng(seed)
    params = d.init_model(backbone, 5, 3, hidden_dim=4, num_layers=2, rng=rng)
    for t in params.params.values():
        t.values += rng.normal(size=t.values.shape)
    return params


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = random_params()
    base = str(tmp_path / "ckpt")
    d.save_checkpoint(params, base)
    loaded = d.load_checkpoint(base)
    assert loaded.backbone == params.backbone
    assert loaded.in_dim == params.in_dim
    assert loaded.hidden_dim == params.hidden_dim
    assert loaded.num_classes == params.num_classes
    assert loaded.num_layers == params.num_layers
    assert loaded.sgc_k == params.sgc_k
    assert list(loaded.params) == list(params.params)
    for name in params.params:
        assert np.array_equal(loaded.params[name].values,
                              params.params[name].values), name


def test_checkpoint_corrupt_manifest_rejected(tmp_path):
    params = random_params()
    base = str(tmp_path / "ckpt")
    d.save_checkpoint(params, base)
    with open(base + ".json") as fh:
        manifest = json.load(fh)
    manifest["format"] = "something-else"
    with open(base + ".json", "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError):
        d.load_checkpoint(base)


@pytest.mark.parametrize("text", ['{"format": "disamgnn-checkpoint",', "[1]"],
                         ids=["not-json", "a-list"])
def test_checkpoint_readers_name_a_manifest_they_cannot_parse(tmp_path, text):
    base = str(tmp_path / "ckpt")
    d.save_checkpoint(random_params(), base)
    with open(base + ".json", "w") as fh:
        fh.write(text)
    for read in (dataio.load_checkpoint, dataio.checkpoint_split_seed):
        with pytest.raises(ValueError) as exc:
            read(base)
        assert str(exc.value).startswith(base + ".json: "), read


def test_checkpoint_blob_length_and_offsets_cross_checked(tmp_path):
    params = random_params()
    base = str(tmp_path / "ckpt")

    d.save_checkpoint(params, base)
    with open(base + ".bin", "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(ValueError):
        d.load_checkpoint(base)

    d.save_checkpoint(params, base)
    with open(base + ".bin", "rb") as fh:
        blob = fh.read()
    with open(base + ".bin", "wb") as fh:
        fh.write(blob[:-8])
    with pytest.raises(ValueError):
        d.load_checkpoint(base)

    d.save_checkpoint(params, base)
    with open(base + ".json") as fh:
        manifest = json.load(fh)
    manifest["entries"][1]["offset"] += 8
    with open(base + ".json", "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError):
        d.load_checkpoint(base)


# ---------------------------------------------------------------------------
# csv surfaces


def test_history_csv_layout(tmp_path):
    records = [
        d.EpochRecord(epoch=0, loss_ce=1.0986, loss_contrast=0.0,
                      loss_total=1.0986, train_acc=0.3, val_acc=0.4,
                      num_ambiguous=0, mean_ambiguity=0.0),
        d.EpochRecord(epoch=1, loss_ce=1.0, loss_contrast=2.5,
                      loss_total=3.5, train_acc=0.5, val_acc=0.6,
                      num_ambiguous=7, mean_ambiguity=0.91),
    ]
    history = d.TrainHistory(records=records, best_epoch=1, best_val_acc=0.6)
    path = str(tmp_path / "history.csv")
    d.data.write_history_csv(history, path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == ",".join(d.data.HISTORY_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[3]) == 1.0986
    assert lines[2].split(",")[6] == "7"


def test_ambiguity_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    state = d.AmbiguityState.create(9, 3)
    state.scores = rng.random(9)
    state.ambiguous = np.array([2, 5, 8], dtype=np.int64)
    path = str(tmp_path / "ambiguity.csv")
    d.data.write_ambiguity_csv(state, path)
    scores, flags = d.data.read_ambiguity_csv(path)
    assert np.array_equal(scores, state.scores)
    assert np.flatnonzero(flags).tolist() == [2, 5, 8]


def test_ambiguity_csv_accepts_rows_in_any_order(tmp_path):
    path = tmp_path / "ambiguity.csv"
    path.write_text("node_id,score,is_ambiguous\n2,0.5,1\n0,0.25,0\n1,1.0,1\n")
    scores, flags = d.data.read_ambiguity_csv(str(path))
    assert scores.tolist() == [0.25, 1.0, 0.5]
    assert flags.tolist() == [False, True, True]


@pytest.mark.parametrize("text, reason", [
    ("node_id,score,is_ambiguous\n0,0.1,0\n2,0.3,1\n", "no row for node_id 1"),
    ("node_id,score,is_ambiguous\n0,0.1,0\n1,0.2,0\n0,0.9,1\n", "duplicate node_id 0"),
    ("node_id,score,is_ambiguous\n-1,0.1,0\n0,0.2,0\n", "negative node_id -1"),
    ("node_id,score\n0,0.1\n", "missing column(s) is_ambiguous"),
    ("", "missing column(s) is_ambiguous, node_id, score"),
    ("node_id,score,is_ambiguous\n0,0.1\n", ":2: expected"),
    ("node_id,score,is_ambiguous\nx,0.1,0\n", ":2: expected"),
    (b"node_id,score,is_ambiguous\n0,0.1,\xff\n", "not UTF-8 text"),
    # past the first 8 KB, which the header read decodes
    (b"node_id,score,is_ambiguous\n" + b"".join(b"%d,0.5,0\n" % i for i in range(2000))
     + b"2000,0.5,\xff\n", "not UTF-8 text"),
], ids=["gap", "duplicate", "negative", "no-flag-column", "empty", "short-row", "bad-id",
        "not-utf8", "not-utf8-after-8k"])
def test_ambiguity_csv_rejects_malformed_rows(tmp_path, text, reason):
    path = tmp_path / "ambiguity.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError) as exc:
        d.data.read_ambiguity_csv(str(path))
    assert str(exc.value).startswith(str(path)) and reason in str(exc.value)


def test_group_report_csv_blank_for_nan(tmp_path):
    rows = [
        {"group": "a", "count": 3, "accuracy": 0.5, "mean_ambiguity": 0.25},
        {"group": "b", "count": 0, "accuracy": float("nan"),
         "mean_ambiguity": float("nan")},
    ]
    path = str(tmp_path / "groups.csv")
    d.data.write_group_report_csv(rows, path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "group,count,accuracy,mean_ambiguity"
    assert lines[1].startswith("a,3,0.5")
    assert lines[2] == "b,0,,"
