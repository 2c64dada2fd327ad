"""Correctness checks on the artifacts of one `train` + `analyze` pass.

Each check recomputes what the CLI reported from the graph and the raw
artifacts, with this file's own numpy/scipy code: the normalized adjacency,
the checkpoint reader, the GCN forward, the metrics and the region groups.
Only the split comes from the package, because it is the CLI's input.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.stats import rankdata

TOL = 1e-9
TIER_NAMES = ("Minority", "Middle", "Majority")
SUBGROUPS = ("Same-class", "Minor-class", "Others")
S2_NAMES = (
    "AdjMinority/LowHom",
    "AdjMinority/HighHom",
    "NotAdjMinority/LowHom",
    "NotAdjMinority/HighHom",
)
HOMOPHILY_CUT = 0.5


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Reference:
    """Graph-only quantities shared by every pass of a run."""

    def __init__(self, edges, features, labels):
        edges = np.asarray(edges, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.features = np.asarray(features, dtype=np.float64)
        n = self.labels.size
        self.num_nodes = n
        self.num_classes = int(self.labels.max()) + 1
        u = np.concatenate([edges[:, 0], edges[:, 1]])
        v = np.concatenate([edges[:, 1], edges[:, 0]])
        adj = sp.csr_array((np.ones(u.size), (u, v)), shape=(n, n))
        adj.sum_duplicates()
        adj.data[:] = 1.0
        self.adj = adj
        deg = np.asarray(adj.sum(axis=1)).ravel()
        self.degree = deg
        # D^-1/2 (A + I) D^-1/2, with entries formed as dinv_i * a_ij * dinv_j.
        loops = (adj + sp.identity(n, format="csr")).tocsr()
        loops.sort_indices()
        dinv = 1.0 / np.sqrt(deg + 1.0)
        rows = np.repeat(np.arange(n), np.diff(loops.indptr))
        loops.data = dinv[rows] * loops.data * dinv[loops.indices]
        self.norm_adj = loops
        self.s1_ids, self.s2_ids = self._groups()

    def _groups(self):
        """Strategy 1 and 2 group ids per node (-1: isolated, strategy 2)."""
        counts = np.bincount(self.labels, minlength=self.num_classes)
        present = counts[counts > 0]
        lo, hi = present.min(), present.max()
        if hi == lo:
            tiers = np.full(self.num_classes, 2)
        else:
            width = (hi - lo) / 3.0
            tiers = np.where(counts <= lo + width, 0, np.where(counts <= lo + 2 * width, 1, 2))
        onehot_label = np.eye(self.num_classes)[self.labels]
        same = (self.adj @ onehot_label)[np.arange(self.num_nodes), self.labels]
        isolated = self.degree == 0
        hom = np.where(isolated, 1.0, same / np.where(isolated, 1.0, self.degree))
        high = hom >= HOMOPHILY_CUT
        tier_counts = self.adj @ np.eye(3)[tiers[self.labels]]
        minor_plurality = (tier_counts[:, 0] > tier_counts[:, 1]) & (tier_counts[:, 0] > tier_counts[:, 2])
        sub = np.where(high, 0, np.where(minor_plurality, 1, 2))
        s1 = tiers[self.labels] * 3 + sub
        adjacent = tier_counts[:, 0] > 0
        s2 = np.where(adjacent, 0, 2) + high.astype(np.int64)
        s2 = np.where(isolated, -1, s2)
        return s1, s2


def read_checkpoint(base: str) -> dict[str, np.ndarray]:
    with open(base + ".json") as fh:
        manifest = json.load(fh)
    _require(manifest["dtype"] == "<f8", f"checkpoint dtype {manifest['dtype']!r}")
    blob = np.fromfile(base + ".bin", dtype="<f8")
    _require(blob.nbytes == manifest["total_bytes"], "checkpoint size differs from manifest")
    out = {}
    for entry in manifest["entries"]:
        count = int(np.prod(entry["shape"]))
        start = entry["offset"] // 8
        out[entry["name"]] = blob[start : start + count].reshape(entry["shape"])
    _require(manifest["backbone"] == "gcn", "benchmark checks expect a GCN checkpoint")
    out["num_layers"] = manifest["num_layers"]
    return out


def gcn_probs(ref: Reference, params: dict) -> np.ndarray:
    h = ref.features
    layers = params["num_layers"]
    for i in range(layers):
        h = ref.norm_adj @ (h @ params[f"layer{i}.weight"]) + params[f"layer{i}.bias"]
        if i < layers - 1:
            h = np.where(h > 0, h, 0.0)
    shifted = h - h.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def split_metrics(probs, labels, idx, num_classes) -> dict:
    preds = probs.argmax(axis=1)[idx]
    y = labels[idx]
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (y, preds), 1)
    tp = np.diag(cm).astype(np.float64)
    denom = cm.sum(axis=0) + cm.sum(axis=1)
    f1 = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)
    present = cm.sum(axis=1) > 0
    aucs = []
    for c in range(num_classes):
        pos = y == c
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        if n_pos and n_neg:
            ranks = rankdata(probs[idx, c], method="average")
            aucs.append((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return {
        "acc": float(np.mean(preds == y)),
        "macro_f1": float(f1[present].mean()),
        "macro_auroc": float(np.mean(aucs)),
        "per_class_f1": f1,
    }


def check_metrics(ref, split, train_dir, seed):
    """Redo the forward from the checkpoint; compare with metrics.json."""
    params = read_checkpoint(os.path.join(train_dir, f"seed_{seed}", "checkpoint"))
    probs = gcn_probs(ref, params)
    with open(os.path.join(train_dir, "metrics.json")) as fh:
        reported = json.load(fh)["splits"]
    mine = {}
    for which in ("train", "val", "test"):
        mine[which] = split_metrics(probs, ref.labels, getattr(split, which), ref.num_classes)
        for key in ("acc", "macro_f1", "macro_auroc"):
            got = reported[which][key]["mean"]
            _require(
                abs(got - mine[which][key]) <= TOL,
                f"{which} {key}: metrics.json {got!r}, recomputed {mine[which][key]!r}",
            )
    return probs, mine, reported


def read_history(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cols = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]} if rows else {}
    return cols


def check_history(hist, epochs, lam, warmup, refresh):
    _require(len(hist.get("epoch", ())) == epochs, f"history has {len(hist.get('epoch', ()))} rows, want {epochs}")
    _require(np.array_equal(hist["epoch"], np.arange(epochs)), "history epochs are not 0..E-1")
    ce, con, tot = hist["loss_ce"], hist["loss_contrast"], hist["loss_total"]
    _require(np.isfinite(ce).all() and np.isfinite(con).all() and np.isfinite(tot).all(), "non-finite loss")
    err = np.abs(tot - (ce + lam * con))
    _require((err <= 1e-12 * np.maximum(1.0, np.abs(tot))).all(), "loss_total != loss_ce + lambda*loss_contrast")
    epoch = np.arange(epochs)
    is_refresh = (epoch >= warmup) & (epoch % refresh == 0)
    before = epoch < epoch[is_refresh].min() if is_refresh.any() else np.ones(epochs, bool)
    _require((con[before] == 0.0).all(), "loss_contrast nonzero before the first refresh")
    if lam == 0.0:
        _require((con == 0.0).all(), "loss_contrast nonzero with lambda 0")
    amb = hist["num_ambiguous"]
    _require((amb[epoch < warmup] == 0).all(), "num_ambiguous nonzero before warmup")
    changed = np.flatnonzero(np.diff(amb) != 0) + 1
    _require(is_refresh[changed].all(), "num_ambiguous changed on a non-refresh epoch")


def check_ambiguity_csv(path, num_nodes, threshold, last_num_ambiguous):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["node_id", "score", "is_ambiguous"], f"ambiguity.csv header {rows[0]}")
    body = np.array(rows[1:], dtype=np.float64).reshape(-1, 3)
    _require(body.shape[0] == num_nodes, f"ambiguity.csv has {body.shape[0]} rows, want {num_nodes}")
    _require(np.array_equal(body[:, 0], np.arange(num_nodes)), "ambiguity.csv ids are not 0..n-1")
    scores, flags = body[:, 1], body[:, 2]
    _require(((scores >= 0) & (scores <= 1)).all(), "ambiguity score outside [0, 1]")
    _require(np.array_equal(flags, (scores > threshold).astype(np.float64)), "is_ambiguous != score > threshold")
    _require(int(flags.sum()) == last_num_ambiguous, "ambiguous count != last num_ambiguous")
    return scores


def _read_report(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {r["group"]: r for r in rows}


def check_analyze(ref, analyze_dir, test_idx, probs, scores, test_acc):
    """Group counts, accuracies and means against groups recomputed here."""
    preds = probs.argmax(axis=1)
    s1_names = [f"{t}/{s}" for t in TIER_NAMES for s in SUBGROUPS]
    for tag, ids, names in (
        ("strategy1", ref.s1_ids, s1_names),
        ("strategy2", ref.s2_ids, list(S2_NAMES) + ["Isolated"]),
    ):
        report = _read_report(os.path.join(analyze_dir, f"{tag}_report.csv"))
        _require(list(report) == names, f"{tag} groups {list(report)}")
        gid = ids[test_idx]
        total = 0
        hits = 0.0
        for k, name in enumerate(names):
            members = test_idx[gid == (k if name != "Isolated" else -1)]
            row = report[name]
            count = int(row["count"])
            _require(count == members.size, f"{tag} {name}: count {count}, recomputed {members.size}")
            total += count
            if count:
                acc = float(row["accuracy"])
                _require(abs(acc - np.mean(preds[members] == ref.labels[members])) <= TOL, f"{tag} {name}: accuracy")
                _require(abs(float(row["mean_ambiguity"]) - scores[members].mean()) <= TOL, f"{tag} {name}: mean ambiguity")
                hits += count * acc
        _require(total == test_idx.size, f"{tag} counts sum to {total}, test size {test_idx.size}")
        _require(
            math.isclose(hits, test_acc * test_idx.size, rel_tol=TOL, abs_tol=TOL),
            f"{tag}: sum(count*accuracy) {hits} != test acc x size {test_acc * test_idx.size}",
        )


def check_beats_majority(ref, test_idx, test_acc):
    share = np.bincount(ref.labels[test_idx]).max() / test_idx.size
    _require(test_acc > share, f"test accuracy {test_acc:.4f} <= largest-class share {share:.4f}")
