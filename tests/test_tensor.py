"""Autodiff op tests.

Every tracked op gets a central finite-difference check of its gradient,
plus frozen-value and shape-error cases. The FD helper perturbs tensor
entries in place and rebuilds the loss through a caller-supplied closure.
"""

import numpy as np
import pytest
from scipy.sparse import csr_array

from disamgnn import tensor as T
from oracles import softplus

H = 1e-5
TOL = 1e-4


def fd_check(make_loss, tensors, h=H, tol=TOL):
    """Compare backward() gradients of make_loss() against central differences.

    make_loss must rebuild the scalar loss from the tensors' current values
    on every call; the tensors are perturbed entry by entry in place.
    """
    for t in tensors:
        t.zero_grad()
    loss = make_loss()
    T.backward(loss)
    for t in tensors:
        assert t.grad is not None, "tracked tensor received no gradient"
        analytic = t.grad.copy()
        for i in range(t.values.shape[0]):
            for j in range(t.values.shape[1]):
                orig = t.values[i, j]
                t.values[i, j] = orig + h
                up = make_loss().item()
                t.values[i, j] = orig - h
                dn = make_loss().item()
                t.values[i, j] = orig
                fd = (up - dn) / (2 * h)
                a = analytic[i, j]
                rel = abs(a - fd) / max(abs(a) + abs(fd), 1e-8)
                assert rel < tol, f"grad mismatch at ({i},{j}): {a} vs {fd}"


def param(rng, rows, cols):
    return T.Tensor(rng.normal(size=(rows, cols)), requires_grad=True)


def rand_weights(rng, shape):
    return rng.normal(size=shape)


def total(x):
    """Scalar sum of all entries: the unit-weight readout."""
    return T.weighted_sum(x, np.ones(x.shape))


# ---------------------------------------------------------------------------
# the scalar softplus oracle's frozen values


def test_softplus_frozen_values():
    assert softplus(0.0) == pytest.approx(np.log(2.0), abs=1e-15)
    assert softplus(50.0) == pytest.approx(50.0, abs=1e-12)
    assert softplus(-50.0) == pytest.approx(np.exp(-50.0), rel=1e-9)


def test_softplus_shift_identity():
    rng = np.random.default_rng(0)
    for x in rng.normal(scale=10, size=50):
        assert softplus(x) - softplus(-x) == pytest.approx(x, abs=1e-12)


# ---------------------------------------------------------------------------
# backward basics


def test_backward_sum_gives_ones():
    x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.backward(total(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_relu_gradient_at_reference_points():
    x = T.Tensor(np.array([[-1.0, 2.0]]), requires_grad=True)
    T.backward(total(T.relu(x)))
    assert x.grad.tolist() == [[0.0, 1.0]]


def test_relu_subgradient_at_zero_is_zero():
    x = T.Tensor(np.array([[0.0]]), requires_grad=True)
    T.backward(total(T.relu(x)))
    assert x.grad.tolist() == [[0.0]]


def test_relu_forward_maps_negative_zero_to_zero_and_keeps_nan():
    out = T.relu(T.Tensor(np.array([[-0.0, np.nan, -1.0, 2.0]]))).values
    assert out[0, 0] == 0.0 and not np.signbit(out[0, 0])
    assert np.isnan(out[0, 1])
    assert out[0, 2:].tolist() == [0.0, 2.0]
    # On finite input the values are bit-equal to the masked select.
    x = np.random.default_rng(5).normal(size=(40, 7))
    x[::3, ::2] = -0.0
    x[1::5, 1::3] = 0.0
    got = T.relu(T.Tensor(x)).values
    assert got.tobytes() == np.where(x > 0, x, 0.0).tobytes()


def test_backward_rejects_non_scalar():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(T.relu(x))


def test_gradient_accumulates_across_branches():
    x = T.Tensor(np.array([[3.0]]), requires_grad=True)
    y = T.add(x, x)  # dy/dx = 2
    T.backward(total(y))
    assert x.grad.tolist() == [[2.0]]


def test_first_gradient_is_an_owned_copy():
    # add hands one g to both parents, concat_cols hands each parent a view
    a = T.Tensor(np.ones((2, 3)), requires_grad=True)
    b = T.Tensor(np.ones((2, 3)), requires_grad=True)
    T.backward(total(T.concat_cols(T.add(a, b), b)))
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, 2 * np.ones((2, 3)))
    a.grad[0, 0] = 7.0
    assert b.grad[0, 0] == 2.0
    assert a.grad.flags.c_contiguous and a.grad.flags.owndata


def test_relu_output_used_twice():
    # relu scales its incoming gradient in place; a second consumer's share
    # must not see that write
    rng = np.random.default_rng(25)
    x = param(rng, 4, 3)
    x.values[np.abs(x.values) < 0.05] = 0.3  # keep clear of the kink
    w = rand_weights(rng, (4, 3))
    wide = rand_weights(rng, (4, 6))

    def shared(combine, weights):
        def loss():
            y = T.relu(x)
            return T.weighted_sum(combine(y, y), weights)
        return loss

    fd_check(shared(T.add, w), [x])
    fd_check(shared(T.concat_cols, wide), [x])
    # add's second parent reads the same incoming gradient after relu ran
    fd_check(lambda: T.weighted_sum(T.add(T.relu(x), T.scalar_mul(T.Tensor(-0.5), x)), w), [x])


def test_linear_is_bytes_of_add_matmul():
    rng = np.random.default_rng(26)
    for rows, inner, cols in [(7, 3, 5), (1, 4, 2), (40, 9, 6)]:
        weights = rand_weights(rng, (rows, cols))
        grads = []
        for fused in (True, False):
            local = np.random.default_rng(rows)
            x, w, b = param(local, rows, inner), param(local, inner, cols), param(local, 1, cols)
            out = T.linear(x, w, b) if fused else T.add(T.matmul(x, w), b)
            T.backward(T.weighted_sum(out, weights))
            grads.append([out.values.tobytes()] + [t.grad.tobytes() for t in (x, w, b)])
        assert grads[0] == grads[1]


def test_softmax_rows_equals_reduction_max_formula():
    # the old formula, with numpy's row-max reduction
    def reference(v):
        e = np.exp(v - v.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    rng = np.random.default_rng(27)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 3.5])
    with np.errstate(invalid="ignore", over="ignore"):
        for cols in (1, 2, 3, 5, 8, 13):
            v = rng.choice(specials, size=(300, cols))
            v[::4] = rng.normal(size=(len(v[::4]), cols))
            v[1::7, :] = v[1::7, :1]  # ties across the whole row
            got = T.softmax_rows(T.Tensor(v)).values
            assert got.tobytes() == reference(v).tobytes(), cols


def test_repeated_backward_over_one_graph_adds_one_gradient_per_pass():
    # op outputs drop their grad after handing it down, so a second pass
    # over the same tape does not re-send the first pass's share
    x = T.Tensor(np.array([[1.0, -2.0, 3.0]]), requires_grad=True)
    loss = total(T.relu(T.scalar_mul(T.Tensor(2.0), x)))
    T.backward(loss)
    T.backward(loss)
    assert x.grad.tolist() == [[4.0, 0.0, 4.0]]


def test_zero_grad_resets_accumulation():
    x = T.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    T.backward(total(x))
    T.backward(total(x))
    assert np.array_equal(x.grad, 2 * np.ones((1, 2)))
    x.zero_grad()
    T.backward(total(x))
    assert np.array_equal(x.grad, np.ones((1, 2)))


# ---------------------------------------------------------------------------
# finite differences, one op at a time


def test_fd_matmul():
    rng = np.random.default_rng(10)
    a = param(rng, 4, 3)
    b = param(rng, 3, 5)
    w = rand_weights(rng, (4, 5))
    fd_check(lambda: T.weighted_sum(T.matmul(a, b), w), [a, b])


def test_fd_spmm():
    rng = np.random.default_rng(11)
    dense = (rng.random((5, 4)) < 0.5) * rng.normal(size=(5, 4))
    s = csr_array(dense)
    x = param(rng, 4, 3)
    w = rand_weights(rng, (5, 3))
    fd_check(lambda: T.weighted_sum(T.spmm(s, x), w), [x])


def test_fd_linear():
    rng = np.random.default_rng(24)
    x = param(rng, 4, 3)
    w = param(rng, 3, 5)
    bias = param(rng, 1, 5)
    weights = rand_weights(rng, (4, 5))
    fd_check(lambda: T.weighted_sum(T.linear(x, w, bias), weights), [x, w, bias])


def test_fd_add_same_shape_and_bias():
    rng = np.random.default_rng(12)
    a = param(rng, 3, 4)
    b = param(rng, 3, 4)
    w = rand_weights(rng, (3, 4))
    fd_check(lambda: T.weighted_sum(T.add(a, b), w), [a, b])
    bias = param(rng, 1, 4)
    fd_check(lambda: T.weighted_sum(T.add(a, bias), w), [a, bias])


def test_fd_relu():
    rng = np.random.default_rng(13)
    x = param(rng, 4, 4)
    x.values[np.abs(x.values) < 0.05] = 0.3  # keep clear of the kink
    w = rand_weights(rng, (4, 4))
    fd_check(lambda: T.weighted_sum(T.relu(x), w), [x])


def test_fd_scale_and_scalar_mul():
    rng = np.random.default_rng(14)
    x = param(rng, 3, 3)
    w = rand_weights(rng, (3, 3))
    fd_check(lambda: T.weighted_sum(T.scalar_mul(T.Tensor(-1.7), x), w), [x])
    s = T.Tensor(np.array([[0.8]]), requires_grad=True)
    fd_check(lambda: T.weighted_sum(T.scalar_mul(s, x), w), [s, x])


def test_fd_row_l2_normalize():
    rng = np.random.default_rng(15)
    x = param(rng, 5, 3)
    w = rand_weights(rng, (5, 3))
    fd_check(lambda: T.weighted_sum(T.row_l2_normalize(x), w), [x])


def test_fd_softmax_rows():
    rng = np.random.default_rng(16)
    x = param(rng, 4, 5)
    w = rand_weights(rng, (4, 5))
    fd_check(lambda: T.weighted_sum(T.softmax_rows(x), w), [x])


def test_fd_concat_cols():
    rng = np.random.default_rng(17)
    a = param(rng, 3, 2)
    b = param(rng, 3, 4)
    w = rand_weights(rng, (3, 6))
    fd_check(lambda: T.weighted_sum(T.concat_cols(a, b), w), [a, b])


def test_fd_weighted_sum_and_sum_all():
    rng = np.random.default_rng(21)
    x = param(rng, 3, 4)
    w = rand_weights(rng, (3, 4))
    fd_check(lambda: T.weighted_sum(x, w), [x])
    fd_check(lambda: total(x), [x])


def test_fd_pair_softplus():
    # both signs, anchor 0 repeated, (0, 1) beside (1, 0), a duplicated pair
    # and a self pair; normalized, row 4 is all zero and stays zero
    rng = np.random.default_rng(23)
    left = np.array([0, 0, 0, 0, 1, 2, 3, 3, 4])
    right = np.array([1, 2, 2, 4, 0, 3, 2, 3, 1])
    signs = np.array([-1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    weights = rng.random(9) + 0.1
    x = param(rng, 5, 3)
    fd_check(lambda: T.pair_softplus(x, left, right, signs, weights), [x])

    a = param(rng, 4, 3)
    pad = csr_array(np.eye(5, 4))

    def normalized():
        return T.pair_softplus(T.row_l2_normalize(T.spmm(pad, a)), left, right, signs, weights)

    fd_check(normalized, [a])


def test_pair_softplus_value_and_empty():
    x = T.Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]), requires_grad=True)
    out = T.pair_softplus(x, [0, 1], [0, 0], [-1.0, 1.0], [0.5, 2.0])
    assert out.item() == pytest.approx(0.5 * softplus(-1.0) + 2.0 * softplus(0.0), abs=1e-15)
    empty = T.pair_softplus(x, [], [], [], [])
    assert empty.item() == 0.0
    T.backward(empty)
    assert not np.any(x.grad)


def test_fd_composite_two_layer_chain():
    rng = np.random.default_rng(22)
    dense = (rng.random((6, 6)) < 0.4) * 1.0
    np.fill_diagonal(dense, 1.0)
    s = csr_array(dense)
    x = T.Tensor(rng.normal(size=(6, 3)))
    w1 = param(rng, 3, 4)
    b1 = param(rng, 1, 4)
    w2 = param(rng, 4, 2)
    w = rand_weights(rng, (6, 2))

    def loss():
        h = T.relu(T.add(T.spmm(s, T.matmul(x, w1)), b1))
        out = T.softmax_rows(T.spmm(s, T.matmul(h, w2)))
        return T.weighted_sum(out, w)

    fd_check(loss, [w1, b1, w2])


def test_dropout_gradient_matches_applied_mask():
    rng = np.random.default_rng(23)
    x = param(rng, 6, 5)
    w = rand_weights(rng, (6, 5))
    out = T.dropout(x, 0.4, np.random.default_rng(99))
    keep = out.values != 0  # normal draws are never exactly zero
    T.backward(T.weighted_sum(out, w))
    assert np.allclose(x.grad, w * keep / 0.6, atol=1e-12)


def test_dropout_rate_zero_is_identity_and_draws_nothing():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    out = T.dropout(x, 0.0, rng)
    assert out is x
    assert rng.bit_generator.state == before
    with pytest.raises(ValueError):
        T.dropout(x, 1.0, rng)


# ---------------------------------------------------------------------------
# value invariants


def test_softmax_rows_sum_to_one_even_at_large_magnitude():
    rng = np.random.default_rng(30)
    x = rng.normal(scale=300.0, size=(8, 6))
    out = T.softmax_rows(T.Tensor(x))
    assert np.all(np.isfinite(out.values))
    assert np.allclose(out.values.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out.values >= 0)


def test_spmm_matches_dense_product():
    rng = np.random.default_rng(31)
    for rep in range(5):
        dense = (rng.random((7, 5)) < 0.4) * rng.normal(size=(7, 5))
        s = csr_array(dense)
        x = rng.normal(size=(5, 3))
        out = T.spmm(s, T.Tensor(x))
        assert np.allclose(out.values, dense @ x, atol=1e-12)
        assert np.allclose(s.toarray(), dense, atol=0)


def test_row_l2_normalize_unit_or_zero_rows():
    x = np.array([[3.0, 4.0], [0.0, 0.0], [-2.0, 0.0]])
    t = T.Tensor(x, requires_grad=True)
    out = T.row_l2_normalize(t)
    norms = np.linalg.norm(out.values, axis=1)
    assert norms[0] == pytest.approx(1.0, abs=1e-12)
    assert norms[1] == 0.0
    assert norms[2] == pytest.approx(1.0, abs=1e-12)
    T.backward(total(out))
    assert np.array_equal(t.grad[1], np.zeros(2))


# ---------------------------------------------------------------------------
# shape and input validation


def test_tensor_shape_promotion_and_errors():
    assert T.Tensor(3.0).shape == (1, 1)
    assert T.Tensor([1.0, 2.0]).shape == (1, 2)
    with pytest.raises(ValueError):
        T.Tensor(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        T.Tensor(np.zeros((2, 2))).item()


def test_op_shape_errors():
    a = T.Tensor(np.zeros((2, 3)))
    b = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        T.matmul(a, b)
    with pytest.raises(ValueError):
        T.add(a, T.Tensor(np.zeros((3, 3))))
    with pytest.raises(ValueError):
        T.concat_cols(a, T.Tensor(np.zeros((3, 1))))
    with pytest.raises(ValueError):
        T.weighted_sum(a, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        T.scalar_mul(a, a)
    with pytest.raises(ValueError):
        T.pair_softplus(a, [1, 0], [0, 1], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        T.pair_softplus(a, [0, 1], [0, 1], [1.0], [1.0, 1.0])
    with pytest.raises(IndexError):
        T.pair_softplus(a, [0, 1], [0, 2], [1.0, 1.0], [1.0, 1.0])
