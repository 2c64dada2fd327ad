"""Message-passing backbones (GCN, SAGE, GIN, SGC) on the shared tensor ops.

All backbones expose the same forward contract: logits over classes, the
hidden representation feeding the final classification layer (used by the
contrastive regularizer), and detached row-softmax class probabilities.

Layer conventions: ReLU between layers, never after the final one. GIN
blocks are Linear-ReLU-Linear with a learnable per-layer epsilon. SGC is a
single linear map on k-step propagated features; its embedding is that
propagated (constant) matrix.

Layer 0 of every backbone aggregates the input features X, which carry no
gradient and see no dropout, so ``forward`` computes that aggregate once per
graph and keeps it, with the propagation matrices, in the graph's memo:
GCN's layer 0 is (ÂX)W₀ + b₀, later layers Â(HW) + b. The memo also holds
each matrix's transpose, the operand of ``spmm``'s backward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graph import Graph, _class_ids, _integers, _memoized, _node_mask, _node_rows, _sorted_unique
from .tensor import (
    Tensor,
    _result,
    add,
    concat_cols,
    dropout,
    linear,
    matmul,
    relu,
    scalar_mul,
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
    """Named parameter tensors plus the architecture they belong to.

    Construction packs the tensors' values, in ``params`` (checkpoint) order,
    into one float64 buffer ``flat`` and makes each tensor's ``values`` a view
    into it, so Adam, snapshots and checkpoints each handle one array. The
    gradients likewise live in ``grad``, in ``flat``'s layout: each tensor's
    ``grad`` is a view of its slice, which ``backward`` adds into.
    """

    backbone: str
    in_dim: int
    hidden_dim: int
    num_classes: int
    num_layers: int
    sgc_k: int
    params: dict[str, Tensor]
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    grad: np.ndarray = field(init=False, repr=False, compare=False)
    _grad_views: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat = np.concatenate([t.values for t in self.params.values()], axis=None)
        self.grad = np.zeros_like(self.flat)
        self._grad_views = []
        offset = 0
        for t in self.params.values():
            part = slice(offset, offset + t.values.size)
            t.values = self.flat[part].reshape(t.shape)
            t.grad = self.grad[part].reshape(t.shape)
            self._grad_views.append(t.grad)
            offset = part.stop

    def named_values(self) -> dict[str, np.ndarray]:
        return {name: t.values for name, t in self.params.items()}

    def zero_grads(self) -> None:
        """Zero ``grad`` and point every tensor's ``grad`` back at its view of it."""
        self.grad.fill(0.0)
        for t, view in zip(self.params.values(), self._grad_views):
            t.grad = view

    def snapshot(self) -> np.ndarray:
        return self.flat.copy()

    def restore(self, snap: np.ndarray) -> None:
        np.copyto(self.flat, snap)


@dataclass
class ForwardOutput:
    logits: Tensor
    embeddings: Tensor
    class_probs: np.ndarray


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))  # init_model keeps every fan >= 1
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
    for name, dim in (("in_dim", in_dim), ("hidden_dim", hidden_dim), ("num_classes", num_classes)):
        if dim < 1:
            raise ValueError(f"{name} must be >= 1, got {dim}")
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    if sgc_k is None:
        sgc_k = num_layers
    elif sgc_k < 0:
        raise ValueError("sgc_k must be None or >= 0")

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
    """Symmetric renormalized adjacency D^-1/2 (A + I) D^-1/2.

    Written straight onto the graph's sorted CSR rows: each row gets its self
    loop in sorted position, and entry (r, c) is dinv[r] * dinv[c].
    """
    n, deg = g.num_nodes, g.degrees()
    rows = np.repeat(np.arange(n), deg)
    below = np.bincount(rows[g.csr_targets < rows], minlength=n)  # targets left of the diagonal
    cols = np.insert(g.csr_targets, g.csr_offsets[:-1] + below, np.arange(n))
    dinv = 1.0 / np.sqrt(deg + 1.0)
    return sp.csr_array(
        (np.repeat(dinv, deg + 1) * dinv[cols], cols, g.csr_offsets + np.arange(n + 1)), shape=(n, n)
    )


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


def _adjacency(g: Graph, adj_key: str) -> tuple[sp.csr_array, sp.csr_array]:
    """``(s, s_t)``: a propagation matrix and its transpose for ``spmm``, built once per graph.

    The GCN and sum adjacencies are symmetric bit for bit, so ``s_t`` is ``s``
    itself; only the row-normalized mean adjacency stores a CSR transpose.
    """
    # looked up per call, so a wrapper set on this module's builders sees them
    build = {"gcn_adj": gcn_normalized_adjacency, "mean_adj": mean_adjacency,
             "sum_adj": sum_adjacency}[adj_key]

    def both():
        s = build(g)
        return s, s.T.tocsr() if adj_key == "mean_adj" else s

    return _memoized(g, adj_key, both)


def _propagated(g: Graph, adj_key: str, k: int) -> Tensor:
    """Constant ``adj^k @ g.features``, computed once per graph."""

    def propagate():
        mat, out = _adjacency(g, adj_key)[0], g.features
        for _ in range(k):
            out = mat @ out
        return Tensor(out)

    return _memoized(g, (adj_key, k), propagate)


def forward(
    params: ModelParams,
    g: Graph,
    *,
    training: bool = False,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> ForwardOutput:
    """Run the backbone over the whole graph.

    The propagation matrices, their transposes and the constant layer-0
    aggregate of the input features depend on ``g`` alone, so the first call
    on a graph builds them into its memo and later calls on that graph reuse
    them: GCN's layer 0 is ``(ÂX)W₀ + b₀``, SAGE's reads ``[X | mean(X)]``
    and GIN's ``ΣX`` from it, and SGC's whole input is ``Â^k X``. Dropout
    fires only when ``training`` is true and ``dropout_rate`` > 0, in which
    case ``rng`` is required; it acts between layers, never on X.
    """
    if g.num_features != params.in_dim:
        raise ValueError(f"graph has {g.num_features} features, model expects {params.in_dim}")
    if g.num_classes != params.num_classes:
        raise ValueError(f"graph has {g.num_classes} classes, model expects {params.num_classes}")
    use_dropout = training and dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("dropout needs an rng in training mode")
    p = params.params
    n_layers = params.num_layers

    if params.backbone == "sgc":
        emb = _propagated(g, "gcn_adj", params.sgc_k)
        h = linear(emb, p["linear.weight"], p["linear.bias"])
        return ForwardOutput(logits=h, embeddings=emb, class_probs=_softmax(h.values))

    adj_key = {"gcn": "gcn_adj", "sage": "mean_adj", "gin": "sum_adj"}[params.backbone]
    adj, adj_t = _adjacency(g, adj_key)
    h = emb = Tensor(g.features)
    for i in range(n_layers):
        ax = _propagated(g, adj_key, 1) if i == 0 else None
        if params.backbone == "gcn":
            w, b = p[f"layer{i}.weight"], p[f"layer{i}.bias"]
            h = linear(ax, w, b) if i == 0 else add(spmm(adj, adj_t, matmul(h, w)), b)
        elif params.backbone == "sage":
            combined = (_memoized(g, "sage_in", lambda: concat_cols(h, ax)) if i == 0
                        else concat_cols(h, spmm(adj, adj_t, h)))
            h = linear(combined, p[f"layer{i}.weight"], p[f"layer{i}.bias"])
        else:  # gin
            agg = add(add(h, scalar_mul(p[f"layer{i}.eps"], h)),
                      ax if i == 0 else spmm(adj, adj_t, h))
            z = relu(linear(agg, p[f"layer{i}.mlp0.weight"], p[f"layer{i}.mlp0.bias"]))
            h = linear(z, p[f"layer{i}.mlp1.weight"], p[f"layer{i}.mlp1.bias"])
        if i < n_layers - 1:
            h = relu(h)
            h = emb = dropout(h, dropout_rate, rng) if use_dropout else h

    return ForwardOutput(logits=h, embeddings=emb, class_probs=_softmax(h.values))


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=1, keepdims=True), one np.maximum per column.

    Exact, NaN included, and for the few columns of a class axis far faster
    than numpy's reduction over short rows.
    """
    out = a[:, :1].copy()
    for j in range(1, a.shape[1]):
        np.maximum(out[:, 0], a[:, j], out=out[:, 0])
    return out


def _softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of logits, shifted by each row's max; no loss differentiates it."""
    e = np.exp(x - _row_max(x))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_loss(output, labels, mask) -> Tensor:
    """Mean negative log-likelihood of the true class over masked nodes.

    ``output`` may be a ForwardOutput or a raw logits Tensor. Computed via a
    numerically stable log-softmax; the gradient is the classic
    (softmax - onehot) / count on masked rows. ``mask`` names distinct nodes.
    """
    logits = output.logits if isinstance(output, ForwardOutput) else output
    labels = _node_rows(_integers(labels, "labels", "class ids"), "labels", logits.shape[0], 1)
    idx = _node_mask(mask, "cross_entropy_loss mask", logits.shape[0])
    if _sorted_unique(idx).size != idx.size:
        raise ValueError("cross_entropy_loss mask repeats a node")
    truth = _class_ids(labels[idx], "labels", logits.shape[1])

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
            gx[idx] = soft / idx.size  # ids are distinct, and no entry is -0.0
            gx *= g[0, 0]
            logits._take_grad(gx)

    return _result(vals, (logits,), grad_fn)
