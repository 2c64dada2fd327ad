"""Gradient checking the reverse-mode tape against finite differences.

The tensor module is a deliberately small autodiff engine: 2-D float64
tensors, a fixed vocabulary of ops, and a topological-order backward
pass. This script chains the ops a training step runs (a relu layer, a
sparse neighborhood propagation, and the fused contrast term over
row-normalized embeddings) into a scalar and confirms the analytic gradients
against 64-bit central differences, the same oracle the test suite uses.
"""

import numpy as np
import scipy.sparse as sp

from disamgnn.tensor import (
    PairPlan,
    Tensor,
    add,
    backward,
    matmul,
    pair_softplus,
    relu,
    row_l2_normalize,
    spmm,
)

# Contrast pairs as the model's regularizer compiles them: anchors ascending,
# sign -1 pulls a positive closer, +1 pushes a negative away, and each pair
# is weighted by one over its pool's size. The plan checks the pairs once, for
# every call; a pair and its mirror would share one dot product.
PAIRS = PairPlan(
    left=[0, 0, 0, 2, 3],
    right=[1, 4, 3, 0, 1],
    signs=[-1.0, -1.0, 1.0, 1.0, -1.0],
    weights=[0.5, 0.5, 1.0, 1.0, 1.0],
)

# A 5-node path graph with self loops; it is symmetric, so it is its own
# transpose, the operand of spmm's backward.
ADJ = sp.csr_array(np.eye(5) + np.eye(5, k=1) + np.eye(5, k=-1))


def build_loss(tensors, readout):
    """A scalar mixing matmul, bias add, relu, propagation, and the contrast tail."""
    x, w1, b1, w2 = tensors
    h = relu(add(matmul(x, w1), b1))          # (n, hidden), bias broadcast
    out = spmm(ADJ, ADJ, matmul(h, w2))       # each node sums its neighbors' rows
    z = row_l2_normalize(out)                 # unit rows: pair dots are cosines
    contrast = pair_softplus(z, PAIRS)
    mass = matmul(Tensor(np.ones((1, out.shape[0]))), out)  # (1, classes)
    return add(contrast, matmul(mass, readout))


def central_difference(tensors, readout, param, i, j, h=1e-5):
    flat = param.values.reshape(-1)
    k = i * param.values.shape[1] + j
    old = flat[k]
    flat[k] = old + h
    up = build_loss(tensors, readout).item()
    flat[k] = old - h
    down = build_loss(tensors, readout).item()
    flat[k] = old
    return (up - down) / (2.0 * h)


def main() -> None:
    rng = np.random.default_rng(7)
    # Keep relu inputs away from the kink at 0 so the finite-difference
    # stencil never straddles the nondifferentiable point.
    x = Tensor(rng.normal(size=(5, 4)) + 0.5, requires_grad=False)
    w1 = Tensor(rng.normal(scale=0.7, size=(4, 6)), requires_grad=True)
    b1 = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    w2 = Tensor(rng.normal(scale=0.7, size=(6, 3)), requires_grad=True)
    readout = Tensor(rng.normal(size=(3, 1)))  # weights the column sums unevenly
    tensors = [x, w1, b1, w2]

    pre = add(matmul(x, w1), b1)
    assert np.min(np.abs(pre.values)) > 1e-3, "relu input too close to its kink"

    loss = build_loss(tensors, readout)
    backward(loss)
    print(f"loss = {loss.item():.6f}")

    worst = 0.0
    for name, p in (("w1", w1), ("b1", b1), ("w2", w2)):
        errs = np.zeros_like(p.values)
        for i in range(p.values.shape[0]):
            for j in range(p.values.shape[1]):
                fd = central_difference(tensors, readout, p, i, j)
                an = p.grad[i, j]
                errs[i, j] = abs(an - fd) / max(abs(an) + abs(fd), 1e-8)
        print(f"  {name}: max relative error vs central differences = {errs.max():.2e}")
        worst = max(worst, errs.max())

    assert worst < 1e-4, "gradient check failed"
    print(f"gradient check passed (worst {worst:.2e} < 1e-4)")

    # Gradients accumulate across backward passes until cleared.
    g_once = w1.grad.copy()
    loss2 = build_loss(tensors, readout)
    backward(loss2)
    assert np.allclose(w1.grad, 2.0 * g_once)
    w1.zero_grad()
    assert not w1.grad.any()
    print("accumulation across backward passes and zero_grad behave as documented")


if __name__ == "__main__":
    main()
