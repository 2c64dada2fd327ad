"""Dense 2-D tensors with reverse-mode gradients over a fixed op vocabulary.

Every op is a free function taking and returning Tensor objects; calling an
op appends a node to the implicit computation graph held by parent links.
``backward(loss)`` walks that graph once in reverse topological order. It
hands each node's gradient to that node's op once and then drops it, so
only leaves (tensors no op produced) keep and accumulate ``.grad``.

The op set is deliberately closed: matmul, linear, spmm, add, relu,
scalar_mul, row_l2_normalize, concat_cols, pair_softplus, dropout. Each
one has a finite-difference test; the scalar readout those tests
differentiate through, ``weighted_sum``, lives in tests/oracles.py.
``spmm(s, s_t, x)`` takes ``s`` and its transpose ``s_t`` as scipy sparse
arrays and ``pair_softplus(x, plan)`` its pairs as a ``PairPlan``, checked
once: all are constants of the tape, built by the caller once, not per call.
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
    "concat_cols",
    "pair_softplus",
    "PairPlan",
    "dropout",
]


class Tensor:
    """A 2-D float64 array with optional gradient tracking.

    Scalars are stored as (1, 1) tensors and 1-D input is promoted to a
    single row. On a leaf, ``grad`` is allocated by the first gradient,
    unless its owner set an array there to add into (``ModelParams`` sets
    views of one buffer), and accumulates across ops and across repeated
    backward passes; call ``zero_grad`` between steps, which zeroes that
    array in place, so a view stays a view. ``backward`` leaves the
    ``grad`` of every op output None.
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
        if self.grad is not None:
            self.grad.fill(0.0)

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


def spmm(s: _sp.sparray, s_t: _sp.sparray, x: Tensor) -> Tensor:
    """Sparse-dense product s @ x for a scipy sparse array s; gradient flows to x only.

    ``s_t`` must equal ``s.T``: the backward returns ``s_t @ g``. The caller
    builds it once per matrix, so no call pays for a transpose; a matrix that
    equals its transpose bit for bit passes itself.
    """
    if s.shape[1] != x.shape[0] or s_t.shape != s.shape[::-1]:
        raise ValueError(f"spmm shape mismatch {s.shape} @ {x.shape} (transpose {s_t.shape})")
    vals = s @ x.values

    def grad_fn(g):
        if x.requires_grad:
            x._take_grad(s_t @ g)

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


class PairPlan:
    """Contrast pairs for ``pair_softplus``: four aligned 1-D arrays, checked and frozen once.

    ``left`` is non-decreasing and no index negative; a pair and its mirror share one key."""

    def __init__(self, left, right, signs, weights):
        left, right = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
        signs, weights = np.array(signs, dtype=np.float64), np.array(weights, dtype=np.float64)
        if left.ndim != 1 or any(a.shape != left.shape for a in (right, signs, weights)):
            raise ValueError("pair_softplus takes four aligned 1-D arrays")
        if left.size and min(left[0], right.min()) < 0:
            raise IndexError("pair_softplus index out of range")
        if np.any(left[1:] < left[:-1]):
            raise ValueError("pair_softplus needs pairs sorted by left index")
        self.max_index = int(max(left[-1], right.max())) if left.size else -1
        span = self.max_index + 1
        keys, self._inv = np.unique(np.minimum(left, right) * span + np.maximum(left, right),
                                    return_inverse=True)
        self._lo, self._hi = np.divmod(keys, span)
        # CSR row offsets of the pairs in ``left`` order, for rows 0..max_index
        self._offsets = np.zeros(span + 1, dtype=np.int64)
        np.cumsum(np.bincount(left, minlength=span), out=self._offsets[1:])
        self.left, self.right, self.signs, self.weights = left, right, signs, weights
        for a in (left, right, signs, weights, self._inv, self._lo, self._hi, self._offsets):
            a.flags.writeable = False


def pair_softplus(x: Tensor, plan: PairPlan) -> Tensor:
    """Scalar sum_k weights[k] * softplus(signs[k] * <x[left[k]], x[right[k]]>) over ``plan``.

    Each unordered pair's dot is computed once, with the bits of its mirror's:
    products commute and rows sum in one order. The gradient is C @ x + C.T @ x with
    C[left[k], right[k]] = g * weights[k] * signs[k] * sigmoid(signs[k] * sim_k),
    so pairs in ``left`` order already are C's CSR layout: the backward
    fills C's values and does no sort or scatter. Repeated and mirrored
    pairs accumulate additively.
    """
    n = x.shape[0]
    if plan.max_index >= n:
        raise IndexError("pair_softplus index out of range")
    # Row blocks keep the gathered temporaries cache-sized instead of
    # mapping fresh pages every call; each row's sum is the same either way.
    step = max(1, 32768 // max(x.shape[1], 1))
    usims = np.empty(plan._lo.size)
    for lo in range(0, usims.size, step):
        rows = slice(lo, lo + step)
        a = np.take(x.values, plan._lo[rows], axis=0)
        a *= np.take(x.values, plan._hi[rows], axis=0)
        np.add.reduce(a, axis=1, out=usims[rows])
    z = usims[plan._inv] * plan.signs
    e = np.exp(-np.abs(z))
    terms = np.maximum(z, 0.0) + np.log1p(e)
    vals = np.array([[np.sum(terms * plan.weights)]])

    def grad_fn(g):
        if x.requires_grad:
            # rows past max_index hold no pairs: they repeat the last offset
            offsets = np.concatenate((plan._offsets, np.full(n - plan.max_index - 1, plan._offsets[-1])))
            # sigmoid(z) from the forward's exp(-|z|), on each sign's own branch
            coef = g[0, 0] * plan.weights * plan.signs * (np.where(z >= 0, 1.0, e) / (1.0 + e))
            c = _sp.csr_array((coef, plan.right, offsets), shape=(n, n))
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
