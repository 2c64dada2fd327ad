"""Immutable undirected graph container and label-homophily statistics.

Provides
--------
Graph                  frozen CSR graph with dense features and integer labels
SplitMasks             disjoint train/val/test node-index sets
build_graph            validate + canonicalize an edge list into a Graph
node_homophily_vector  fraction of each node's neighbors sharing its label
graph_homophily        mean node homophily over non-isolated nodes
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "SplitMasks",
    "build_graph",
    "node_homophily_vector",
    "graph_homophily",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _sorted_unique(arr: np.ndarray) -> np.ndarray:
    """np.unique(arr) for a 1-D int array, by one sort.

    numpy 2.4's np.unique takes a hash-table path for integers: on the 1.42M
    edge keys of a 100k-node graph it took 1.85 s, this 26 ms.
    """
    arr = np.sort(arr)
    return arr[np.concatenate(([True], arr[1:] != arr[:-1]))] if arr.size else arr


def _node_index(values, what: str, n: int | None = None) -> np.ndarray:
    """``values`` as 1-D int64 node ids, in [0, n) when ``n`` is given; bool or float ids fail."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must hold integer node indices, got dtype {arr.dtype}")
    if arr.ndim != 1:
        raise ValueError(f"{what} must be 1-D, got shape {arr.shape}")
    arr = arr.astype(np.int64, copy=False)
    if n is not None and arr.size and (arr.min() < 0 or arr.max() >= n):
        raise IndexError(f"{what} holds a node index outside [0, {n})")
    return arr


@dataclass(frozen=True)
class Graph:
    """Undirected graph in CSR form.

    The adjacency is symmetric, deduplicated, and self-loop free.
    ``features`` is a dense (num_nodes, num_features) float64 matrix and
    ``labels[v]`` is a class index below ``num_classes``. Arrays are marked
    read-only at construction; build new graphs instead of mutating.
    """

    num_nodes: int
    csr_offsets: np.ndarray
    csr_targets: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    @property
    def num_edges(self) -> int:
        """Undirected edge count (half the stored directed arcs)."""
        return self.csr_targets.shape[0] // 2

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def degrees(self) -> np.ndarray:
        return np.diff(self.csr_offsets)

    def neighbors(self, v: int) -> np.ndarray:
        return self.csr_targets[self.csr_offsets[v] : self.csr_offsets[v + 1]]


@dataclass(frozen=True)
class SplitMasks:
    """Sorted, pairwise-disjoint node index arrays for train/val/test."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "val", "test"):
            raw = _node_index(getattr(self, name), f"{name} mask")
            arr = _sorted_unique(raw)
            if arr.size != raw.size:
                raise ValueError(f"{name} mask contains duplicate node indices")
            if arr.size and arr.min() < 0:
                raise ValueError(f"{name} mask contains negative node indices")
            object.__setattr__(self, name, _frozen(arr))
        n_union = _sorted_unique(np.concatenate((self.train, self.val, self.test))).size
        if n_union != self.train.size + self.val.size + self.test.size:
            raise ValueError("split masks overlap")

    def mask(self, which: str) -> np.ndarray:
        if which not in ("train", "val", "test"):
            raise ValueError(f"unknown split {which!r}")
        return getattr(self, which)


def build_graph(edges, features, labels, num_classes: int | None = None) -> Graph:
    """Build a canonical Graph from an edge list.

    Parameters
    ----------
    edges : array-like of shape (E, 2)
        Integer endpoint pairs. Direction is ignored; duplicates and
        self-loops are dropped.
    features : array-like of shape (N, d)
        Dense real feature rows, one per node.
    labels : array-like of shape (N,)
        Integer class per node.
    num_classes : int, optional
        Total class count; inferred as max(labels)+1 when omitted.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D (num_nodes, d) matrix")
    if not np.isfinite(features).all():
        raise ValueError("features contain non-finite values")
    n = features.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError(
            f"labels shape {labels.shape} does not match {n} feature rows"
        )
    if num_classes is None:
        if n == 0:
            raise ValueError("cannot infer num_classes from an empty graph")
        num_classes = int(labels.max()) + 1
    num_classes = int(num_classes)
    if num_classes < 2:
        raise ValueError("graphs need at least 2 classes")
    if n and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels must lie in [0, num_classes)")

    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must have shape (E, 2)")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")

    # Symmetrize, drop self-loops, dedup. Keys src*n + dst sort like the
    # (src, dst) rows, so unique() also yields sorted neighbor lists per node.
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    keep = src != dst
    keys = _sorted_unique(src[keep] * n + dst[keep])

    counts = np.bincount(keys // n, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    targets = keys % n

    return Graph(
        num_nodes=n,
        csr_offsets=_frozen(offsets),
        csr_targets=_frozen(targets),
        features=_frozen(features),
        labels=_frozen(labels),
        num_classes=num_classes,
    )


def node_homophily_vector(g: Graph) -> np.ndarray:
    """Fraction of each node's neighbors sharing its label; 1.0 for isolated nodes."""
    deg = g.degrees()
    same = (g.labels[g.csr_targets] == np.repeat(g.labels, deg)).astype(np.float64)
    sums = np.bincount(np.repeat(np.arange(g.num_nodes), deg), weights=same, minlength=g.num_nodes)
    out = np.ones(g.num_nodes)
    active = deg > 0
    out[active] = sums[active] / deg[active]
    return out


def graph_homophily(g: Graph) -> float:
    """Mean node homophily over nodes with at least one neighbor."""
    deg = g.degrees()
    active = deg > 0
    if not active.any():
        raise ValueError("graph_homophily is undefined on an edgeless graph")
    return float(node_homophily_vector(g)[active].mean())
