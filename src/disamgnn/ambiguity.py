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
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import Graph, _node_index, _node_rows, _sorted_unique
from .tensor import PairPlan, Tensor, pair_softplus, row_l2_normalize

__all__ = [
    "DisamConfig",
    "AmbiguityState",
    "ContrastGroups",
    "NodePools",
    "update_memory",
    "ambiguity_scores",
    "select_ambiguous",
    "build_contrast_groups",
    "refresh",
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
    if not np.isfinite(sums).all() or np.max(np.abs(sums - 1.0)) > 1e-6 or probs.min() < -1e-12:
        raise ValueError("class_probs rows must be finite probability vectors")
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
# close to this many entries: an 8 MB float64 similarity block plus two 1 MB masks.
_SCAN_BLOCK_ELEMS = 1 << 20


@dataclass(frozen=True)
class NodePools:
    pos: np.ndarray
    neg: np.ndarray
    aux_pos: np.ndarray


@dataclass(eq=False)
class ContrastGroups:
    """Positive, negative and auxiliary pools of each selected node, as flat arrays.

    ``nodes`` lists the anchors and ``sizes[i]`` the (pos, neg, aux_pos)
    pool sizes of ``nodes[i]``; ``pos``, ``neg`` and ``aux_pos`` hold each
    kind's pools one after another in ``nodes`` order. ``pairs()`` compiles
    them into one read-only ``PairPlan`` on first use and keeps it, so the
    arrays must not change after the loss has seen them. ``pools`` gives the
    same pools as a dict of ``NodePools`` in ``nodes`` order, built when
    first read; training never reads it.
    """

    nodes: np.ndarray
    sizes: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    aux_pos: np.ndarray
    _pairs: PairPlan | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def pools(self) -> dict[int, NodePools]:
        cuts = np.cumsum(self.sizes[:-1], axis=0)
        pos, neg, aux = (np.split(a, cuts[:, i]) for i, a in enumerate((self.pos, self.neg, self.aux_pos)))
        return {v: NodePools(*p) for v, p in zip(self.nodes.tolist(), zip(pos, neg, aux))}

    def pairs(self) -> PairPlan:
        """Every contrast pair as the ``PairPlan`` that ``pair_softplus`` takes, compiled once."""
        if self._pairs is None:
            self._pairs = _compile_pairs(self)
        return self._pairs


def _compile_pairs(groups: ContrastGroups) -> PairPlan:
    """Flatten pools into pairs: anchors ascending, then pos, aux_pos, neg.

    Positives (neighbor and auxiliary pooled) carry sign -1 and negatives
    +1; each pair is weighted by one over the size of its pool.
    """
    order, sizes = np.argsort(groups.nodes), groups.sizes
    # Where each pool starts in pos + neg + aux_pos; then every pool in pair order.
    starts = np.cumsum(sizes, axis=0) - sizes + np.cumsum(sizes.sum(axis=0)) - sizes.sum(axis=0)
    lens, starts = (a[order][:, [0, 2, 1]].ravel() for a in (sizes, starts))
    at = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    pooled = np.stack((lens[0::3] + lens[1::3], lens[2::3]), axis=1).ravel()  # pos, neg per anchor
    return PairPlan(
        np.repeat(np.repeat(groups.nodes[order], 2), pooled),
        np.concatenate((groups.pos, groups.neg, groups.aux_pos))[at],
        np.repeat(np.tile([-1.0, 1.0], order.size), pooled),
        np.repeat(1.0 / np.maximum(pooled, 1), pooled),
    )


def _kept(values: np.ndarray, keep: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """values[keep], and how many kept entries each segment bounds[i]:bounds[i + 1] has."""
    return values[keep], np.diff(np.concatenate(([0], np.cumsum(keep)))[bounds])


def _floyd_ranks(counts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Row i's ``k`` distinct ranks in [0, counts[i]), ascending.

    Draw for draw, and leaving ``rng`` in the same state, these are the picks
    of numpy's ``rng.choice(counts[i], k, replace=False)`` called row by row,
    for rows outside its tail-shuffle branch. One ``integers`` call makes
    each row's 2k - 1 draws: Floyd's k, the j-th in [0, counts[i] - k + j],
    then the k - 1 of the shuffle that numpy applies to them and that leaves
    them the same set. Floyd keeps a draw unless it was picked before, when
    it takes that step's upper bound instead.
    """
    steps = np.arange(k)
    highs = np.empty((counts.size, 2 * k - 1), dtype=np.int64)
    highs[:, :k] = counts[:, None] - k + steps
    highs[:, k:] = steps[:0:-1]
    draws = rng.integers(0, highs, endpoint=True)[:, :k]
    picked = np.zeros((counts.size, int(counts.max())), dtype=bool)
    rows = np.arange(counts.size)
    for j in steps:
        v = draws[:, j]
        seen = picked[rows, v]
        v[seen] = highs[seen, j]
        picked[rows, v] = True
    draws.sort(axis=1)
    return draws


def _aux_picks(counts: np.ndarray, k: int, rng: np.random.Generator) -> list:
    """Per row, which of its ``counts[i]`` candidates are auxiliary positives, as an index.

    A row with more than ``k`` candidates keeps the ranks ``_floyd_ranks``
    draws for it: the candidates, and the ``rng`` state, of
    ``np.sort(rng.choice(cand, k, replace=False))`` called row by row, with
    numpy's tail-shuffle rows still drawn by ``rng.choice``. Other rows keep
    their first ``k`` candidates, which is all of them, and draw nothing.
    """
    picks = [slice(k)] * counts.size
    drawn = np.flatnonzero(counts > k) if k else counts[:0]
    # Rows that numpy's choice draws by shuffling a whole arange, not by Floyd's rule:
    # each ends a run, and draws after the rows before it.
    shuffled = (counts > 10_000) & (k > counts // 50)
    for run in np.split(drawn, np.flatnonzero(shuffled[drawn]) + 1):
        floyd = run[~shuffled[run]]
        if floyd.size:
            for r, ranks in zip(floyd.tolist(), _floyd_ranks(counts[floyd], k, rng)):
                picks[r] = ranks
        for r in run[shuffled[run]]:
            picks[r] = np.sort(rng.choice(counts[r], k, replace=False))
    return picks


def build_contrast_groups(
    embeddings, g: Graph, nodes, cfg: DisamConfig, rng: np.random.Generator
) -> ContrastGroups:
    """Build pools for every node in ``nodes``, skipping isolated ones.

    With m the node's best neighbor similarity, positives are the neighbors
    strictly above pos_ratio*m (none when m <= 0) and negatives those at or
    below neg_ratio*m. Auxiliary positives are up to ``aux_samples``
    non-neighbors (other than the node) at or above ``aux_similarity_min``,
    sampled uniformly without replacement and returned ascending.

    The draws, and the state they leave ``rng`` in, are those of
    ``rng.choice(cand, aux_samples, replace=False)`` called one node at a
    time in the order of ``nodes`` for each node with more candidates
    ``cand`` than that, so the same order gives the same draws; ``_aux_picks``
    makes one block's draws with one ``rng.integers`` call. ``nodes`` must be
    distinct integers in [0, num_nodes); ``embeddings`` has one row per node.

    Each block of nodes makes one similarity product against a transposed
    n x d copy of the normalized embeddings, of at most max(2**20, num_nodes)
    float64 entries (8 MB at that cap). Both pool kinds are read from that
    product, so a similarity lying on a cut point is decided by its bits, as
    for the auxiliary threshold. Memory is one reused product buffer plus two
    boolean masks of its shape. On a process that may use two CPUs or more,
    one worker thread computes block k+1's product, neighbor similarities and
    auxiliary mask while the calling thread draws block k's auxiliary
    positives. The worker runs numpy only; ``rng`` is used on the calling
    thread alone, and the worker is joined before the function returns. The
    pools come back as flat arrays (see ``ContrastGroups``).
    """
    emb = _node_rows(np.asarray(embeddings, dtype=np.float64), "embeddings", g.num_nodes, 2)
    nodes = _node_index(nodes, "nodes", g.num_nodes)
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
    sims, aux = np.empty(nbr.size), []  # each neighbor's similarity; each block's (aux pools, sizes)
    rows = max(1, _SCAN_BLOCK_ELEMS // max(zn.shape[0], 1))
    starts = range(0, nodes.size, rows)
    prod = np.empty((min(rows, nodes.size), zn.shape[0]))
    masks = (np.empty(prod.shape, dtype=bool), np.empty(prod.shape, dtype=bool))

    def scan(k: int) -> np.ndarray:
        """Block k's neighbor similarities into ``sims``; its aux-eligible mask."""
        start = starts[k]
        block = nodes[start : start + rows]
        lo, hi = bounds[start], bounds[start + block.size]
        r, t = edge_row[lo:hi] - start, nbr[lo:hi]
        out, eligible = prod[: block.size], masks[k % 2][: block.size]
        np.matmul(zn[block], zt, out=out)
        sims[lo:hi] = out[r, t]
        np.greater_equal(out, cfg.aux_similarity_min, out=eligible)
        eligible[np.arange(block.size), block] = False
        eligible[r, t] = False
        return eligible

    # Block 0 has nothing to overlap with, so the calling thread computes it, and
    # the executor starts its thread on the first submit: a one-block refresh, or
    # one on a single CPU, where the overlap would only add hand-offs, starts
    # none. The calling thread polls for the next block instead of sleeping on
    # it: on a 2-CPU host, refreshes whose waits slept left later work in the
    # process (bundle loading, epochs) measurably slower.
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    ahead, overlap = None, (len(affinity(0)) if affinity else os.cpu_count() or 1) > 1
    with ThreadPoolExecutor(max_workers=1) as worker:
        for k in range(len(starts)):
            while ahead is not None and not ahead.done():
                time.sleep(0)  # lets the worker take the interpreter lock
            eligible = scan(k) if ahead is None else ahead.result()
            if overlap and k + 1 < len(starts):
                ahead = worker.submit(scan, k + 1)  # overwrites prod, not block k's mask
            counts = np.count_nonzero(eligible, axis=1)
            picks = _aux_picks(counts, cfg.aux_samples, rng)
            aux.append((np.concatenate([row.nonzero()[0][p] for row, p in zip(eligible, picks)]),
                        np.minimum(counts, cfg.aux_samples)))

    m = np.repeat(np.maximum.reduceat(sims, bounds[:-1]), deg)  # the node's best, per neighbor
    is_pos, is_neg = (sims > cfg.pos_ratio * m) & (m > 0), sims <= cfg.neg_ratio * m
    (pos, pos_sizes), (neg, neg_sizes) = _kept(nbr, is_pos, bounds), _kept(nbr, is_neg, bounds)
    aux_pos, aux_sizes = map(np.concatenate, zip(*aux)) if aux else (nbr[:0], nbr[:0])
    return ContrastGroups(nodes, np.stack((pos_sizes, neg_sizes, aux_sizes), axis=1), pos, neg, aux_pos)


def refresh(
    state: AmbiguityState, embeddings, g: Graph, cfg: DisamConfig, rng: np.random.Generator
) -> ContrastGroups | None:
    """Rescore the memory, reselect the ambiguous set and rebuild its pools.

    Sets ``state.scores`` and ``state.ambiguous``. Returns None, drawing
    nothing from ``rng``, when ``cfg.loss_weight`` is 0 or no node is selected.
    """
    state.scores = ambiguity_scores(state.memory)
    state.ambiguous = select_ambiguous(state.scores, cfg.score_threshold)
    if cfg.loss_weight == 0 or not state.ambiguous.size:
        return None
    return build_contrast_groups(embeddings, g, state.ambiguous, cfg, rng)


def jsd_contrast_loss(embeddings: Tensor, groups: ContrastGroups) -> Tensor:
    """Sum over selected nodes of softplus contrast on pair cosine similarities.

    Per node: mean over pooled positives (neighbor positives plus auxiliary
    ones) of softplus(-sim) plus mean over negatives of softplus(sim).
    Empty pools contribute nothing. Gradients reach both pair endpoints.
    """
    plan = groups.pairs()
    if not plan.left.size:
        return Tensor(np.zeros((1, 1)))
    return pair_softplus(row_l2_normalize(embeddings), plan)
