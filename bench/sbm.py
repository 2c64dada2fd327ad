"""Sparse stochastic block model for the scaled workload.

The benchmark writes its scaled graph with this generator instead of
``disamgnn.data.sbm_generate``, so a later change to the package's sampler
cannot silently change the benchmark's input. Edges follow Batagelj &
Brandes, *Efficient generation of large random networks* (PRE 71, 036113,
2005): for each block pair the edge count is drawn from a binomial over
the pair's possible edges, then that many distinct endpoint pairs are drawn
uniformly. Memory is O(edges), not O(nodes^2).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# The `ambiguity` preset's blocks, copied here so that the scaled input does
# not follow edits to the package's preset. bench/test_sbm.py checks that the
# expected degrees still match the package's preset.
PRESET_SIZES = (300, 300, 60)
PRESET_INTRA = (0.04, 0.04, 0.38)
PRESET_INTER = ((0.0, 0.0015, 0.0075), (0.0015, 0.0, 0.0075), (0.0075, 0.0075, 0.0))
NOISE_SCALE = 1.0
_STREAM = 7_919  # rng stream tag for scaled graphs


@dataclass(frozen=True)
class BlockSpec:
    sizes: tuple[int, ...]
    probs: np.ndarray  # (C, C) symmetric edge probabilities

    def expected_degrees(self) -> np.ndarray:
        """Expected degree of a node in each block (no self-loops)."""
        sizes = np.asarray(self.sizes, dtype=np.float64)
        room = sizes[None, :] - np.eye(len(self.sizes))
        return (self.probs * room).sum(axis=1)

    def possible_pairs(self, a: int, b: int) -> int:
        sa, sb = self.sizes[a], self.sizes[b]
        return sa * (sa - 1) // 2 if a == b else sa * sb


def scaled_spec(scale: int) -> BlockSpec:
    """The preset's blocks times ``scale``, with its expected degrees kept.

    Block ratios are kept exactly. Each probability is rescaled so that a
    node meets as many neighbours in each block as in the preset.
    """
    sizes = tuple(s * scale for s in PRESET_SIZES)
    probs = np.array(PRESET_INTER, dtype=np.float64) / scale
    for c, (s, p) in enumerate(zip(PRESET_SIZES, PRESET_INTRA)):
        probs[c, c] = p * (s - 1) / (s * scale - 1)
    return BlockSpec(sizes=sizes, probs=probs)


def _distinct_pairs(rng, m: int, rows: int, cols: int, same: bool):
    """``m`` distinct uniform (row, col) pairs; unordered without loops if ``same``."""
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        draw = m - keys.size
        draw += draw // 8 + 16
        i = rng.integers(0, rows, size=draw)
        j = rng.integers(0, cols, size=draw)
        if same:
            keep = i != j
            i, j = np.minimum(i[keep], j[keep]), np.maximum(i[keep], j[keep])
        keys = np.concatenate([keys, i * cols + j])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]  # first occurrences, in draw order
    keys = keys[:m]
    return keys // cols, keys % cols


def generate(spec: BlockSpec, seed: int):
    """Sample (edges, features, labels); every node gets at least one edge.

    A node left isolated by the draw is joined to a uniformly chosen member
    of its own block, so the contrast pools never skip a node. At the
    preset's degrees this touches a node in roughly one graph of fifty.
    """
    rng = np.random.default_rng([_STREAM, seed])
    sizes = np.asarray(spec.sizes, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])
    labels = np.repeat(np.arange(sizes.size), sizes)
    chunks = []
    for a in range(sizes.size):
        for b in range(a, sizes.size):
            m = int(rng.binomial(spec.possible_pairs(a, b), spec.probs[a, b]))
            i, j = _distinct_pairs(rng, m, int(sizes[a]), int(sizes[b]), a == b)
            chunks.append(np.stack([starts[a] + i, starts[b] + j], axis=1))
    edges = np.concatenate(chunks)
    degree = np.bincount(edges.ravel(), minlength=n)
    extra = []
    for v in np.flatnonzero(degree == 0):
        block = labels[v]
        u = v
        while u == v:
            u = int(rng.integers(starts[block], starts[block + 1]))
        extra.append((min(v, u), max(v, u)))
    if extra:
        edges = np.concatenate([edges, np.asarray(extra, dtype=np.int64)])
    features = np.eye(sizes.size)[labels] + NOISE_SCALE * rng.standard_normal(
        (n, sizes.size)
    )
    return edges, features, labels


def write_bundle(path: str, edges, features, labels) -> None:
    """Write a dataset bundle in the layout ``disamgnn`` reads."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "edges.tsv"), "w") as fh:
        fh.write("".join(f"{u}\t{v}\n" for u, v in edges.tolist()))
    with open(os.path.join(path, "features.csv"), "w") as fh:
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in features.tolist()))
    with open(os.path.join(path, "labels.csv"), "w") as fh:
        fh.write("".join(f"{y}\n" for y in labels.tolist()))
    meta = {
        "name": "bench-scaled-sbm",
        "num_nodes": int(features.shape[0]),
        "num_features": int(features.shape[1]),
        "num_classes": int(labels.max()) + 1,
    }
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
