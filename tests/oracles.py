"""Scalar reference implementations that the tests check the package against.

Each one computes, for one value, one pair or one node, what the package
computes for whole arrays at once. ``weighted_sum`` is the one tape op kept
here: the scalar readout the finite-difference tests differentiate through.
"""

import numpy as np

from disamgnn.tensor import Tensor, _result


def weighted_sum(x: Tensor, w) -> Tensor:
    """Scalar sum(x * w) for a constant weight array shaped like x."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != x.shape:
        raise ValueError(f"weighted_sum weight shape {w.shape} != {x.shape}")

    def grad_fn(g):
        if x.requires_grad:
            x._take_grad(g[0, 0] * w)

    return _result(np.array([[np.sum(x.values * w)]]), (x,), grad_fn)


def softplus(x: float) -> float:
    """Overflow-safe log(1 + exp(x)) for python scalars."""
    x = float(x)
    return max(x, 0.0) + float(np.log1p(np.exp(-abs(x))))


def similarity(z_u, z_v) -> float:
    """Cosine similarity between two embedding rows; zero rows give 0.0."""
    u = np.asarray(z_u, dtype=np.float64).ravel()
    v = np.asarray(z_v, dtype=np.float64).ravel()
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def node_homophily(g, v: int) -> float:
    """Fraction of ``v``'s neighbors sharing its label; 1.0 for isolated nodes."""
    if not 0 <= v < g.num_nodes:
        raise IndexError(f"node {v} out of range for {g.num_nodes} nodes")
    nbr = g.neighbors(v)
    if nbr.size == 0:
        return 1.0
    return float(np.mean(g.labels[nbr] == g.labels[v]))


def neighbor_pools(zn, g, v: int, pos_ratio: float, neg_ratio: float):
    """(pos, neg) neighbor pools of ``v`` from its own similarity product.

    ``zn`` holds unit-normalized embedding rows. With m the best neighbor
    similarity, positives lie strictly above pos_ratio*m (none when m <= 0)
    and negatives at or below neg_ratio*m.
    """
    nbr = g.neighbors(v)
    sims = zn[nbr] @ zn[v]
    m = sims.max()
    if m > 0:
        pos = nbr[sims > pos_ratio * m]
    else:
        # Best neighbor already dissimilar: nothing qualifies as positive,
        # and every similarity <= m <= neg_ratio*m falls in the negative pool.
        pos = np.empty(0, dtype=np.int64)
    neg = nbr[sims <= neg_ratio * m]
    return pos.astype(np.int64), neg.astype(np.int64)
