"""Dense 2-D tensors with reverse-mode gradients over a fixed op vocabulary.

Every op is a free function taking and returning Tensor objects; calling an
op appends a node to the implicit computation graph held by parent links.
``backward(loss)`` walks that graph once in reverse topological order. It
hands each node's gradient to that node's op once and then drops it, so
only leaves (tensors no op produced) keep and accumulate ``.grad``.

The op set is deliberately closed: matmul, linear, spmm, add, relu,
scalar_mul, row_l2_normalize, softmax_rows, concat_cols, weighted_sum,
pair_softplus, dropout. Each one has a finite-difference test;
weighted_sum is the scalar readout those tests differentiate through.
``spmm(s, x)`` takes ``s`` as a scipy sparse array, a constant of the tape.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sp

__all__ = [
    "Tensor",
    "backward",
    "matmul",
    "linear",
    "spmm",
    "add",
    "relu",
    "scalar_mul",
    "row_l2_normalize",
    "softmax_rows",
    "concat_cols",
    "weighted_sum",
    "pair_softplus",
    "dropout",
]


class Tensor:
    """A 2-D float64 array with optional gradient tracking.

    Scalars are stored as (1, 1) tensors and 1-D input is promoted to a
    single row. On a leaf, ``grad`` is lazily allocated and accumulates
    across ops and across repeated backward passes; call ``zero_grad``
    between steps. ``backward`` leaves the ``grad`` of every op output None.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got ndim={arr.ndim}")
        self.values = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() needs a scalar tensor, shape is {self.shape}")
        return float(self.values[0, 0])

    def zero_grad(self) -> None:
        self.grad = None

    def _take_grad(self, g: np.ndarray) -> None:
        # g must be a fresh C-contiguous float64 array that no one else holds:
        # it becomes this tensor's grad, which relu's backward writes into.
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(values: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad for every reachable leaf.

    Each op output's gradient is handed to its op once and then dropped, so
    after the walk only leaves hold a ``.grad``.
    """
    if loss.values.size != 1:
        raise ValueError("backward expects a scalar loss tensor")
    # Iterative DFS topological order; graphs can be deep at many layers.
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    loss._take_grad(np.ones_like(loss.values))
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            g, node.grad = node.grad, None
            node._backward_fn(g)


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Dense product a @ b, gradient-tracked in both arguments."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    vals = a.values @ b.values

    def grad_fn(g):
        if a.requires_grad:
            a._take_grad(g @ b.values.T)
        if b.requires_grad:
            b._take_grad(a.values.T @ g)

    return _result(vals, (a, b), grad_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a (1, cols) row bias b: add(matmul(x, w), b) as one node."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ValueError(f"linear shape mismatch {x.shape} @ {w.shape} + {b.shape}")
    vals = x.values @ w.values
    vals += b.values

    def grad_fn(g):
        if b.requires_grad:
            b._take_grad(g.sum(axis=0, keepdims=True))
        if x.requires_grad:
            x._take_grad(g @ w.values.T)
        if w.requires_grad:
            w._take_grad(x.values.T @ g)

    return _result(vals, (x, w, b), grad_fn)


def spmm(s: _sp.sparray, x: Tensor) -> Tensor:
    """Sparse-dense product s @ x for a scipy sparse array s; gradient flows to x only."""
    if s.shape[1] != x.shape[0]:
        raise ValueError(f"spmm shape mismatch {s.shape} @ {x.shape}")
    vals = s @ x.values

    def grad_fn(g):
        if x.requires_grad:
            x._take_grad(s.T @ g)

    return _result(vals, (x,), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may be a (1, cols) row bias broadcast over rows."""
    if a.shape == b.shape:
        bias = False
    elif b.shape == (1, a.shape[1]):
        bias = True
    else:
        raise ValueError(f"add shape mismatch {a.shape} + {b.shape}")
    vals = a.values + b.values

    def grad_fn(g):
        # g goes to a itself; b gets its row sum, or a copy when a takes g
        if b.requires_grad:
            if bias:
                b._take_grad(g.sum(axis=0, keepdims=True))
            elif a.requires_grad:
                b._take_grad(g.copy())
            else:
                b._take_grad(g)
        if a.requires_grad:
            a._take_grad(g)

    return _result(vals, (a, b), grad_fn)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), with -0.0 -> +0.0 and NaN kept; the subgradient at exactly 0 is 0."""
    mask = x.values > 0
    vals = np.maximum(x.values, 0.0)

    def grad_fn(g):
        if x.requires_grad:
            g *= mask
            x._take_grad(g)

    return _result(vals, (x,), grad_fn)


def scalar_mul(s: Tensor, x: Tensor) -> Tensor:
    """Multiply x by a (1, 1) scalar tensor s, learnable or constant."""
    if s.shape != (1, 1):
        raise ValueError("scalar_mul expects a (1, 1) scalar tensor")
    c = s.values[0, 0]
    vals = x.values * c

    def grad_fn(g):
        if s.requires_grad:
            s._take_grad(np.array([[np.sum(g * x.values)]]))
        if x.requires_grad:
            x._take_grad(g * c)

    return _result(vals, (s, x), grad_fn)


def row_l2_normalize(x: Tensor) -> Tensor:
    """Scale each row to unit L2 norm; all-zero rows stay zero with zero grad."""
    norms = np.linalg.norm(x.values, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    vals = x.values / safe

    def grad_fn(g):
        if x.requires_grad:
            inner = (g * vals).sum(axis=1, keepdims=True)
            gx = (g - vals * inner) / safe
            gx[norms[:, 0] == 0] = 0.0
            x._take_grad(gx)

    return _result(vals, (x,), grad_fn)


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=1, keepdims=True), one np.maximum per column.

    Exact, NaN included, and for the few columns of a class axis far faster
    than numpy's reduction over short rows.
    """
    out = a[:, :1].copy()
    for j in range(1, a.shape[1]):
        np.maximum(out[:, 0], a[:, j], out=out[:, 0])
    return out


def softmax_rows(x: Tensor) -> Tensor:
    """Numerically stable row-wise softmax."""
    e = np.exp(x.values - _row_max(x.values))
    vals = e / e.sum(axis=1, keepdims=True)

    def grad_fn(g):
        if x.requires_grad:
            inner = (g * vals).sum(axis=1, keepdims=True)
            x._take_grad(vals * (g - inner))

    return _result(vals, (x,), grad_fn)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two row-aligned tensors side by side."""
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"concat_cols row mismatch {a.shape} | {b.shape}")
    vals = np.hstack([a.values, b.values])
    split = a.shape[1]

    def grad_fn(g):
        if a.requires_grad:
            a._take_grad(g[:, :split].copy())
        if b.requires_grad:
            b._take_grad(g[:, split:].copy())

    return _result(vals, (a, b), grad_fn)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def weighted_sum(x: Tensor, w) -> Tensor:
    """Scalar sum(x * w) for a constant weight array shaped like x."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != x.shape:
        raise ValueError(f"weighted_sum weight shape {w.shape} != {x.shape}")
    vals = np.array([[np.sum(x.values * w)]])

    def grad_fn(g):
        if x.requires_grad:
            x._take_grad(g[0, 0] * w)

    return _result(vals, (x,), grad_fn)


def pair_softplus(x: Tensor, left, right, signs, weights) -> Tensor:
    """Scalar sum_k weights[k] * softplus(signs[k] * <x[left[k]], x[right[k]]>).

    ``left`` must be non-decreasing. The gradient is C @ x + C.T @ x with
    C[left[k], right[k]] = g * weights[k] * signs[k] * sigmoid(signs[k] * sim_k),
    so pairs in ``left`` order already are C's CSR layout: the backward
    fills C's values and does no sort or scatter. Repeated and mirrored
    pairs accumulate additively.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    signs = np.asarray(signs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if left.ndim != 1 or any(a.shape != left.shape for a in (right, signs, weights)):
        raise ValueError("pair_softplus takes four aligned 1-D arrays")
    n = x.shape[0]
    if left.size and (min(left[0], right.min()) < 0 or max(left[-1], right.max()) >= n):
        raise IndexError("pair_softplus index out of range")
    if np.any(left[1:] < left[:-1]):
        raise ValueError("pair_softplus needs pairs sorted by left index")
    # Row blocks keep the gathered temporaries cache-sized instead of
    # mapping fresh pages every call; each row's sum is the same either way.
    step = max(1, 32768 // max(x.shape[1], 1))
    sims = np.empty(left.size)
    for lo in range(0, left.size, step):
        rows = slice(lo, lo + step)
        sims[rows] = (x.values[left[rows]] * x.values[right[rows]]).sum(axis=1)
    z = sims * signs
    terms = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    vals = np.array([[np.sum(terms * weights)]])

    def grad_fn(g):
        if x.requires_grad:
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(left, minlength=n), out=offsets[1:])
            coef = g[0, 0] * weights * signs * _sigmoid(z)
            c = _sp.csr_array((coef, right, offsets), shape=(n, n))
            x._take_grad(c @ x.values + c.T @ x.values)

    return _result(vals, (x,), grad_fn)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted-scaling dropout; rate 0 is the identity and draws nothing."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    if rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    factor = 1.0 / (1.0 - rate)
    vals = x.values * keep * factor

    def grad_fn(g):
        if x.requires_grad:
            x._take_grad(g * keep * factor)

    return _result(vals, (x,), grad_fn)
