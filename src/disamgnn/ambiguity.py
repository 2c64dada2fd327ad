"""Ambiguous-node discovery and the neighborhood contrastive regularizer.

The trainer keeps a per-node memory of smoothed class probabilities,
updated after every epoch as an exponential moving average of the current
eval-mode predictions. The normalized entropy of a node's memory row is its
ambiguity score; nodes scoring above a threshold form the ambiguous set.

For each ambiguous node, neighbors split into a positive pool (embedding
similarity above a fraction of the best neighbor similarity) and a negative
pool (below a smaller fraction); similar non-neighbors are sampled as extra
positives. The contrast loss pulls pooled positives together and pushes
negatives apart through softplus on pairwise similarities, with gradients
flowing to both endpoints of every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, _node_index, _sorted_unique
from .tensor import Tensor, pair_softplus, row_l2_normalize

__all__ = [
    "DisamConfig",
    "AmbiguityState",
    "ContrastGroups",
    "NodePools",
    "update_memory",
    "ambiguity_scores",
    "select_ambiguous",
    "build_contrast_groups",
    "jsd_contrast_loss",
]


@dataclass
class DisamConfig:
    """Knobs for ambiguity discovery and the contrast term.

    memory_decay        EMA weight on the previous memory row
    score_threshold     normalized-entropy cutoff for the ambiguous set
    pos_ratio/neg_ratio fractions of the max neighbor similarity that bound
                        the positive and negative pools
    aux_similarity_min  minimum similarity for auxiliary non-neighbor positives
    aux_samples         how many auxiliary positives to draw per node
    loss_weight         multiplier on the contrast term in the objective
    refresh_period      epochs between ambiguous-set/pool refreshes
    warmup_epochs       first epoch at which a refresh may happen
    """

    memory_decay: float = 0.5
    score_threshold: float = 0.8
    pos_ratio: float = 0.75
    neg_ratio: float = 0.4
    aux_similarity_min: float = 0.7
    aux_samples: int = 8
    loss_weight: float = 1.0
    refresh_period: int = 10
    warmup_epochs: int = 50

    def validate(self) -> None:
        finite = math.isfinite
        if not (finite(self.memory_decay) and 0.0 <= self.memory_decay <= 1.0):
            raise ValueError("memory_decay must lie in [0, 1]")
        if not (finite(self.score_threshold) and 0.0 < self.score_threshold <= 1.0):
            raise ValueError("score_threshold must lie in (0, 1]")
        if not (finite(self.pos_ratio) and finite(self.neg_ratio)
                and 0.0 < self.neg_ratio <= self.pos_ratio <= 1.0):
            raise ValueError("need 0 < neg_ratio <= pos_ratio <= 1")
        if not finite(self.aux_similarity_min):
            raise ValueError("aux_similarity_min must be finite")
        if self.aux_samples < 0:
            raise ValueError("aux_samples must be >= 0")
        if not (finite(self.loss_weight) and self.loss_weight >= 0.0):
            raise ValueError("loss_weight must be finite and >= 0")
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")


@dataclass
class AmbiguityState:
    """Per-node memory matrix plus the last refreshed scores and selection."""

    memory: np.ndarray
    scores: np.ndarray
    ambiguous: np.ndarray
    initialized: bool = False

    @classmethod
    def create(cls, num_nodes: int, num_classes: int) -> "AmbiguityState":
        return cls(
            memory=np.zeros((num_nodes, num_classes)),
            scores=np.zeros(num_nodes),
            ambiguous=np.empty(0, dtype=np.int64),
            initialized=False,
        )


def update_memory(
    state: AmbiguityState, class_probs: np.ndarray, memory_decay: float
) -> AmbiguityState:
    """EMA-blend current predictions into the memory; first call copies them."""
    if not 0.0 <= memory_decay <= 1.0:
        raise ValueError("memory_decay must lie in [0, 1]")
    probs = np.asarray(class_probs, dtype=np.float64)
    if probs.shape != state.memory.shape:
        raise ValueError(
            f"class_probs shape {probs.shape} != memory shape {state.memory.shape}"
        )
    sums = probs.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-6 or probs.min() < -1e-12:
        raise ValueError("class_probs rows must be probability vectors")
    if not state.initialized:
        state.memory[...] = probs
        state.initialized = True
    else:
        state.memory *= memory_decay
        state.memory += (1.0 - memory_decay) * probs
    return state


def ambiguity_scores(memory: np.ndarray) -> np.ndarray:
    """Entropy of each memory row, normalized by ln(num_classes) into [0, 1]."""
    mem = np.asarray(memory, dtype=np.float64)
    if mem.ndim != 2 or mem.shape[1] < 2:
        raise ValueError("memory must be (num_nodes, num_classes>=2)")
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(mem > 0, mem * np.log(mem), 0.0)
    raw = -plogp.sum(axis=1)
    scores = raw / np.log(mem.shape[1])
    # Clip float fuzz so exact one-hot/uniform rows land on 0 and 1.
    return np.clip(scores, 0.0, 1.0)


def select_ambiguous(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Node indices whose score strictly exceeds the threshold, ascending."""
    scores = np.asarray(scores)
    return np.flatnonzero(scores > threshold).astype(np.int64)


# Rows per block of the similarity scan are capped so that rows * num_nodes stays
# close to this many entries: an 8 MB float64 similarity block plus a 1 MB mask.
_SCAN_BLOCK_ELEMS = 1 << 20


@dataclass(frozen=True)
class NodePools:
    pos: np.ndarray
    neg: np.ndarray
    aux_pos: np.ndarray


@dataclass
class ContrastGroups:
    """Positive/negative/auxiliary pools for each selected node.

    ``pairs()`` compiles the pools into flat pair arrays on first use and
    keeps them, so pools must not change after the loss has seen them.
    """

    pools: dict[int, NodePools] = field(default_factory=dict)
    _pairs: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.pools)

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(left, right, signs, weights) of every contrast pair, as ``pair_softplus`` takes them."""
        if self._pairs is None:
            self._pairs = _compile_pairs(self.pools)
        return self._pairs


def _compile_pairs(pools: dict[int, NodePools]):
    """Flatten pools into pairs: anchors ascending, then pos, aux_pos, neg.

    Positives (neighbor and auxiliary pooled) carry sign -1 and negatives
    +1; each pair is weighted by one over the size of its pool.
    """
    anchors = sorted(pools)
    parts = [a for v in anchors for a in (pools[v].pos, pools[v].aux_pos, pools[v].neg)]
    sizes = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts)).reshape(-1, 3)
    sizes = np.stack((sizes[:, 0] + sizes[:, 1], sizes[:, 2]), axis=1).ravel()  # pos, neg per anchor
    right = np.concatenate(parts) if parts else np.empty(0)
    return (
        np.repeat(np.repeat(np.asarray(anchors, dtype=np.int64), 2), sizes),
        right.astype(np.int64),
        np.repeat(np.tile([-1.0, 1.0], len(anchors)), sizes),
        np.repeat(1.0 / np.maximum(sizes, 1), sizes),
    )


def _split_kept(values: np.ndarray, keep: np.ndarray, bounds: np.ndarray) -> list:
    """values[keep], cut into one array per segment bounds[i]:bounds[i + 1]."""
    at = np.concatenate(([0], np.cumsum(keep)))[bounds].tolist()
    kept = values[keep]
    return [kept[a:b] for a, b in zip(at, at[1:])]


def build_contrast_groups(
    embeddings, g: Graph, nodes, cfg: DisamConfig, rng: np.random.Generator
) -> ContrastGroups:
    """Build pools for every node in ``nodes``, skipping isolated ones.

    With m the node's best neighbor similarity, positives are the neighbors
    strictly above pos_ratio*m (none when m <= 0) and negatives those at or
    below neg_ratio*m. Auxiliary positives are up to ``aux_samples``
    non-neighbors (other than the node) at or above ``aux_similarity_min``,
    sampled uniformly without replacement and returned ascending.

    They are drawn from ``rng`` one node at a time in the order of
    ``nodes``, so the same order gives the same draws. ``nodes`` must be
    distinct integers in [0, num_nodes); ``embeddings`` has one row per node.

    Each block of nodes makes one similarity product against a transposed
    n x d copy of the normalized embeddings: at most max(2**20, num_nodes)
    float64 entries (8 MB at that cap), then a boolean mask of that shape.
    Both pool kinds are read from that product, so a similarity lying on a
    cut point is decided by its bits, as for the auxiliary threshold.
    """
    emb, nodes = np.asarray(embeddings, dtype=np.float64), _node_index(nodes, "nodes", g.num_nodes)
    if emb.ndim != 2 or emb.shape[0] != g.num_nodes:
        raise ValueError(f"embeddings must be 2-D with {g.num_nodes} rows, got shape {emb.shape}")
    if _sorted_unique(nodes).size != nodes.size:
        raise ValueError("nodes must not repeat")
    nodes = nodes[g.degrees()[nodes] > 0]
    zn = row_l2_normalize(Tensor(emb)).values
    zt = np.ascontiguousarray(zn.T)
    # The neighbor lists of ``nodes``, one after another, and their bounds.
    deg = g.degrees()[nodes]
    bounds = np.concatenate(([0], np.cumsum(deg)))
    nbr = g.csr_targets[np.repeat(g.csr_offsets[nodes] - bounds[:-1], deg) + np.arange(bounds[-1])]
    edge_row = np.repeat(np.arange(nodes.size), deg)
    sims, aux = np.empty(nbr.size), []  # each neighbor's similarity; each node's aux pool
    rows = max(1, _SCAN_BLOCK_ELEMS // max(zn.shape[0], 1))
    for start in range(0, nodes.size, rows):
        block = nodes[start : start + rows]
        lo, hi = bounds[start], bounds[start + block.size]
        r, t = edge_row[lo:hi] - start, nbr[lo:hi]
        prod = zn[block] @ zt
        sims[lo:hi] = prod[r, t]
        eligible = prod >= cfg.aux_similarity_min
        del prod
        eligible[np.arange(block.size), block] = False
        eligible[r, t] = False
        for row in eligible:
            cand = row.nonzero()[0]
            if cand.size > cfg.aux_samples:
                cand = rng.choice(cand, size=cfg.aux_samples, replace=False)
            aux.append(np.sort(cand))

    m = np.repeat(np.maximum.reduceat(sims, bounds[:-1]), deg)  # the node's best, per neighbor
    is_pos, is_neg = (sims > cfg.pos_ratio * m) & (m > 0), sims <= cfg.neg_ratio * m
    pos, neg = _split_kept(nbr, is_pos, bounds), _split_kept(nbr, is_neg, bounds)
    return ContrastGroups({v: NodePools(*p) for v, p in zip(nodes.tolist(), zip(pos, neg, aux))})


def jsd_contrast_loss(embeddings: Tensor, groups: ContrastGroups) -> Tensor:
    """Sum over selected nodes of softplus contrast on pair cosine similarities.

    Per node: mean over pooled positives (neighbor positives plus auxiliary
    ones) of softplus(-sim) plus mean over negatives of softplus(sim).
    Empty pools contribute nothing. Gradients reach both pair endpoints.
    """
    left, right, signs, weights = groups.pairs()
    if not left.size:
        return Tensor(np.zeros((1, 1)))
    return pair_softplus(row_l2_normalize(embeddings), left, right, signs, weights)
