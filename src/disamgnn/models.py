"""Message-passing backbones (GCN, SAGE, GIN, SGC) on the shared tensor ops.

All backbones expose the same forward contract: logits over classes, the
hidden representation feeding the final classification layer (used by the
contrastive regularizer), and detached row-softmax class probabilities.

Layer conventions: ReLU between layers, never after the final one. GIN
blocks are Linear-ReLU-Linear with a learnable per-layer epsilon. SGC is a
single linear map on k-step propagated features; its embedding is that
propagated (constant) matrix.

Layer 0 of every backbone aggregates the input features X, which carry no
gradient and see no dropout, so ``forward``'s cache computes that aggregate
once: GCN's layer 0 is (ÂX)W₀ + b₀, later layers Â(HW) + b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Graph, _node_index
from .tensor import (
    Tensor,
    _result,
    _row_max,
    add,
    concat_cols,
    dropout,
    linear,
    matmul,
    relu,
    scalar_mul,
    softmax_rows,
    spmm,
)

__all__ = [
    "BACKBONES",
    "ModelParams",
    "ForwardOutput",
    "init_model",
    "gcn_normalized_adjacency",
    "mean_adjacency",
    "sum_adjacency",
    "forward",
    "cross_entropy_loss",
]

BACKBONES = ("gcn", "sage", "gin", "sgc")


@dataclass
class ModelParams:
    """Named parameter tensors plus the architecture they belong to."""

    backbone: str
    in_dim: int
    hidden_dim: int
    num_classes: int
    num_layers: int
    sgc_k: int
    params: dict[str, Tensor]

    def named_values(self) -> dict[str, np.ndarray]:
        return {name: t.values for name, t in self.params.items()}

    def named_grads(self) -> dict[str, np.ndarray]:
        return {
            name: t.grad if t.grad is not None else np.zeros_like(t.values)
            for name, t in self.params.items()
        }

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self.params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, t in self.params.items():
            np.copyto(t.values, snap[name])


@dataclass
class ForwardOutput:
    logits: Tensor
    embeddings: Tensor
    class_probs: np.ndarray


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(
    backbone: str,
    in_dim: int,
    num_classes: int,
    *,
    hidden_dim: int = 64,
    num_layers: int = 2,
    sgc_k: int | None = None,
    rng: np.random.Generator,
) -> ModelParams:
    """Glorot-uniform weights, zero biases, zero GIN epsilons."""
    if backbone not in BACKBONES:
        raise ValueError(f"unknown backbone {backbone!r}, expected one of {BACKBONES}")
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    if sgc_k is None:
        sgc_k = num_layers

    dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [num_classes]
    params: dict[str, Tensor] = {}

    def param(name, arr):
        params[name] = Tensor(arr, requires_grad=True)

    if backbone in ("gcn", "sage"):
        widen = 2 if backbone == "sage" else 1
        for i in range(num_layers):
            param(f"layer{i}.weight", _glorot(rng, widen * dims[i], dims[i + 1]))
            param(f"layer{i}.bias", np.zeros((1, dims[i + 1])))
    elif backbone == "gin":
        for i in range(num_layers):
            param(f"layer{i}.eps", np.zeros((1, 1)))
            param(f"layer{i}.mlp0.weight", _glorot(rng, dims[i], hidden_dim))
            param(f"layer{i}.mlp0.bias", np.zeros((1, hidden_dim)))
            param(f"layer{i}.mlp1.weight", _glorot(rng, hidden_dim, dims[i + 1]))
            param(f"layer{i}.mlp1.bias", np.zeros((1, dims[i + 1])))
    else:  # sgc
        param("linear.weight", _glorot(rng, in_dim, num_classes))
        param("linear.bias", np.zeros((1, num_classes)))

    return ModelParams(
        backbone=backbone,
        in_dim=in_dim,
        hidden_dim=hidden_dim,
        num_classes=num_classes,
        num_layers=num_layers,
        sgc_k=int(sgc_k),
        params=params,
    )


def gcn_normalized_adjacency(g: Graph) -> sp.csr_array:
    """Symmetric renormalized adjacency D^-1/2 (A + I) D^-1/2."""
    n = g.num_nodes
    adj = sp.csr_array(
        (np.ones(g.csr_targets.shape[0]), g.csr_targets, g.csr_offsets), shape=(n, n)
    )
    adj = adj + sp.identity(n, format="csr")
    dinv = 1.0 / np.sqrt(g.degrees() + 1.0)
    return sp.diags_array(dinv) @ adj @ sp.diags_array(dinv)


def mean_adjacency(g: Graph) -> sp.csr_array:
    """Row-normalized adjacency D^-1 A; zero-degree rows stay all zero."""
    deg = g.degrees().astype(np.float64)
    inv = np.zeros_like(deg)
    nz = deg > 0
    inv[nz] = 1.0 / deg[nz]
    values = np.repeat(inv, g.degrees())
    return sp.csr_array((values, g.csr_targets, g.csr_offsets), shape=(g.num_nodes,) * 2)


def sum_adjacency(g: Graph) -> sp.csr_array:
    """Plain 0/1 adjacency (no self-loops)."""
    values = np.ones(g.csr_targets.shape[0])
    return sp.csr_array((values, g.csr_targets, g.csr_offsets), shape=(g.num_nodes,) * 2)


def _cached(cache: dict, key, builder):
    if key not in cache:
        cache[key] = builder()
    return cache[key]


def _adjacency(cache: dict, g: Graph, adj_key: str) -> sp.csr_array:
    # looked up per call, so a wrapper set on this module's builders sees them
    build = {"gcn_adj": gcn_normalized_adjacency, "mean_adj": mean_adjacency,
             "sum_adj": sum_adjacency}[adj_key]
    return _cached(cache, adj_key, lambda: build(g))


def _propagated(cache: dict, g: Graph, adj_key: str, k: int) -> Tensor:
    """Constant ``adj^k @ g.features``, computed once per cache."""

    def propagate():
        mat, out = _adjacency(cache, g, adj_key), g.features
        for _ in range(k):
            out = mat @ out
        return Tensor(out)

    return _cached(cache, (adj_key, k), propagate)


def forward(
    params: ModelParams,
    g: Graph,
    *,
    training: bool = False,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    cache: dict | None = None,
) -> ForwardOutput:
    """Run the backbone over the whole graph.

    ``cache`` may be shared across calls on the same graph. It holds the
    propagation matrices and the constant layer-0 aggregate of the input
    features, so only the first call pays for them: GCN's layer 0 is
    ``(ÂX)W₀ + b₀``, SAGE's reads ``[X | mean(X)]`` and GIN's ``ΣX`` from
    it, and SGC's whole input is ``Â^k X``. Dropout fires only when
    ``training`` is true and ``dropout_rate`` > 0, in which case ``rng`` is
    required; it acts between layers, never on X.
    """
    if g.num_features != params.in_dim:
        raise ValueError(f"graph has {g.num_features} features, model expects {params.in_dim}")
    if g.num_classes != params.num_classes:
        raise ValueError(f"graph has {g.num_classes} classes, model expects {params.num_classes}")
    use_dropout = training and dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("dropout needs an rng in training mode")
    cache = {} if cache is None else cache
    p = params.params
    n_layers = params.num_layers

    def between_layers(h: Tensor) -> Tensor:
        h = relu(h)
        if use_dropout:
            h = dropout(h, dropout_rate, rng)
        return h

    if params.backbone == "sgc":
        emb = _propagated(cache, g, "gcn_adj", params.sgc_k)
        h = linear(emb, p["linear.weight"], p["linear.bias"])
        return ForwardOutput(logits=h, embeddings=emb, class_probs=softmax_rows(h).values)

    adj_key = {"gcn": "gcn_adj", "sage": "mean_adj", "gin": "sum_adj"}[params.backbone]
    adj = _adjacency(cache, g, adj_key)
    h = emb = Tensor(g.features)
    for i in range(n_layers):
        ax = _propagated(cache, g, adj_key, 1) if i == 0 else None
        if params.backbone == "gcn":
            w, b = p[f"layer{i}.weight"], p[f"layer{i}.bias"]
            h = linear(ax, w, b) if i == 0 else add(spmm(adj, matmul(h, w)), b)
        elif params.backbone == "sage":
            combined = (_cached(cache, "sage_in", lambda: concat_cols(h, ax)) if i == 0
                        else concat_cols(h, spmm(adj, h)))
            h = linear(combined, p[f"layer{i}.weight"], p[f"layer{i}.bias"])
        else:  # gin
            agg = add(add(h, scalar_mul(p[f"layer{i}.eps"], h)), ax if i == 0 else spmm(adj, h))
            z = relu(linear(agg, p[f"layer{i}.mlp0.weight"], p[f"layer{i}.mlp0.bias"]))
            h = linear(z, p[f"layer{i}.mlp1.weight"], p[f"layer{i}.mlp1.bias"])
        if i < n_layers - 1:
            h = emb = between_layers(h)

    return ForwardOutput(logits=h, embeddings=emb, class_probs=softmax_rows(h).values)


def cross_entropy_loss(output, labels, mask) -> Tensor:
    """Mean negative log-likelihood of the true class over masked nodes.

    ``output`` may be a ForwardOutput or a raw logits Tensor. Computed via a
    numerically stable log-softmax; the gradient is the classic
    (softmax - onehot) / count on masked rows.
    """
    logits = output.logits if isinstance(output, ForwardOutput) else output
    labels = np.asarray(labels, dtype=np.int64)
    idx = _node_index(mask, "cross_entropy_loss mask", logits.shape[0])
    if idx.size == 0:
        raise ValueError("cross_entropy_loss needs a non-empty mask")
    truth = labels[idx]
    if truth.min() < 0 or truth.max() >= logits.shape[1]:
        raise IndexError("class index out of range")

    rows = logits.values[idx]
    shifted = rows - _row_max(rows)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    picked = log_probs[np.arange(idx.size), truth]
    vals = np.array([[-picked.mean()]])

    def grad_fn(g):
        if logits.requires_grad:
            soft = np.exp(log_probs)
            soft[np.arange(idx.size), truth] -= 1.0
            gx = np.zeros(logits.shape)
            np.add.at(gx, idx, soft / idx.size)
            gx *= g[0, 0]
            logits._take_grad(gx)

    return _result(vals, (logits,), grad_fn)
