"""Scalar reference implementations that the tests check the package against.

Each one computes, for one value, one pair or one node, what the package
computes for whole arrays at once. ``weighted_sum`` is the one tape op kept
here: the scalar readout the finite-difference tests differentiate through.
``pair_softplus`` gathers every pair's own rows: the package's op, which
gathers each unordered pair once, must reproduce its bits. ``adam_step``
and ``checkpoint_blob`` handle one parameter tensor at a time: the package,
which keeps every parameter in one flat buffer, must reproduce their bits.
``gcn_normalized_adjacency`` builds Â through two sparse products: the
package writes it straight onto the graph's CSR arrays, with the same bytes.
``contrast_groups`` packs pools written per node into the package's flat
``ContrastGroups`` layout. ``sbm_generate`` draws each block's uniforms in
one ``rng.random`` call, over ``np.triu_indices`` or a dense 2-D mask: the
package, which draws in pieces and computes the endpoints, must reproduce
its graphs bit for bit.
"""

import numpy as np
import scipy.sparse as sp

from disamgnn.ambiguity import ContrastGroups
from disamgnn.data import block_probability_matrix
from disamgnn.graph import build_graph
from disamgnn.optim import BETA1, BETA2, EPS
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


def pair_softplus(x, left, right, signs, weights):
    """(value, gradient) of sum_k weights[k] * softplus(signs[k] * <x[left[k]], x[right[k]]>).

    Every pair gathers its own two rows, in row blocks of 32768 // d pairs,
    and the gradient is C @ x + C.T @ x over the pairs' CSR layout, with the
    sigmoid taken on each sign's own branch. ``left`` is non-decreasing.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    step = max(1, 32768 // max(x.shape[1], 1))
    sims = np.empty(left.size)
    for lo in range(0, left.size, step):
        rows = slice(lo, lo + step)
        sims[rows] = (x[left[rows]] * x[right[rows]]).sum(axis=1)
    z = sims * signs
    terms = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    value = np.array([[np.sum(terms * weights)]])
    sig = np.empty_like(z)
    pos = z >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(left, minlength=n), out=offsets[1:])
    c = sp.csr_array((weights * signs * sig, right, offsets), shape=(n, n))
    return value, c @ x + c.T @ x


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


def adam_step(state, params: dict, grads: dict) -> dict:
    """One in-place Adam step, tensor by tensor, over dicts of named arrays.

    ``state`` is an ``AdamState`` whose ``m`` and ``v`` are dicts, empty at
    the start.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads[name]
        if state.weight_decay:
            g = g + state.weight_decay * p
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return params


def checkpoint_blob(params) -> bytes:
    """A checkpoint's .bin bytes, written entry by entry as little-endian float64."""
    return b"".join(np.ascontiguousarray(t.values, dtype="<f8").tobytes()
                    for t in params.params.values())


def gcn_normalized_adjacency(g) -> sp.csr_array:
    """D^-1/2 (A + I) D^-1/2 as diags(dinv) @ (A + I) @ diags(dinv)."""
    n = g.num_nodes
    adj = sp.csr_array(
        (np.ones(g.csr_targets.shape[0]), g.csr_targets, g.csr_offsets), shape=(n, n)
    )
    adj = adj + sp.identity(n, format="csr")
    dinv = 1.0 / np.sqrt(g.degrees() + 1.0)
    return sp.diags_array(dinv) @ adj @ sp.diags_array(dinv)


def contrast_groups(pools: dict) -> ContrastGroups:
    """``ContrastGroups`` of ``pools``, node -> (pos, neg, aux_pos), in dict order."""
    rows = [[np.asarray(a, dtype=np.int64) for a in p] for p in pools.values()]
    flat = [np.concatenate([r[i] for r in rows] + [np.empty(0, np.int64)]) for i in range(3)]
    sizes = np.array([[a.size for a in r] for r in rows], dtype=np.int64).reshape(-1, 3)
    return ContrastGroups(np.fromiter(pools, np.int64, len(pools)), sizes, *flat)


def sbm_generate(spec):
    """Sample a graph: Bernoulli block edges, Gaussian features per class."""
    sizes = np.asarray(spec.class_sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size < 2 or (sizes <= 0).any():
        raise ValueError("class_sizes must list >= 2 positive block sizes")
    means = np.asarray(spec.class_means, dtype=np.float64)
    if means.shape[0] != sizes.size:
        raise ValueError("class_means must have one row per class")
    probs = block_probability_matrix(spec)
    rng = np.random.default_rng(spec.seed)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])
    labels = np.repeat(np.arange(sizes.size), sizes)

    edge_chunks = []
    for a in range(sizes.size):
        for b in range(a, sizes.size):
            p = probs[a, b]
            if a == b:
                iu, ju = np.triu_indices(sizes[a], k=1)
                hit = rng.random(iu.size) < p
                if hit.any():
                    edge_chunks.append(
                        np.stack([starts[a] + iu[hit], starts[a] + ju[hit]], axis=1)
                    )
            else:
                hits = rng.random((sizes[a], sizes[b])) < p
                ia, ib = np.nonzero(hits)
                if ia.size:
                    edge_chunks.append(
                        np.stack([starts[a] + ia, starts[b] + ib], axis=1)
                    )
    edges = np.concatenate(edge_chunks) if edge_chunks else np.empty((0, 2), np.int64)
    features = means[labels] + spec.noise_scale * rng.standard_normal(
        (n, means.shape[1])
    )
    return build_graph(edges, features, labels, num_classes=sizes.size)
