"""Adam optimizer tests against an independently coded reference update
and, bit for bit, against the per-tensor step in tests/oracles.py."""

import numpy as np
import pytest

import disamgnn as d
import oracles


def reference_adam(params, grad_fn, lr, wd, steps,
                   beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam with classic L2 decay folded into the gradient."""
    p = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(val) for k, val in params.items()}
    for t in range(1, steps + 1):
        grads = grad_fn(p)
        for k in p:
            g = grads[k] + wd * p[k]
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v2[k] = beta2 * v2[k] + (1 - beta2) * g * g
            mhat = m[k] / (1 - beta1**t)
            vhat = v2[k] / (1 - beta2**t)
            p[k] = p[k] - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def test_zero_gradient_zero_decay_leaves_params_unchanged():
    state = d.AdamState(lr=0.1, weight_decay=0.0)
    params = np.array([[1.0, -2.0]])
    before = params.copy()
    for _ in range(5):
        d.adam_step(state, params, np.zeros((1, 2)))
    assert np.array_equal(params, before)


def test_first_step_magnitude_is_learning_rate():
    # with m, v both fresh the bias-corrected ratio is g/|g|, so the first
    # update moves each coordinate by almost exactly lr against the gradient
    state = d.AdamState(lr=1e-3, weight_decay=0.0)
    params = np.array([[0.5, -0.5]])
    d.adam_step(state, params, np.array([[2.0, -3.0]]))
    assert params[0, 0] == pytest.approx(0.5 - 1e-3, rel=1e-6)
    assert params[0, 1] == pytest.approx(-0.5 + 1e-3, rel=1e-6)


def test_ten_step_quadratic_matches_reference():
    # minimize 0.5 * ||p - target||^2 per parameter tensor; the step sees
    # both tensors as one flat buffer
    rng = np.random.default_rng(5)
    target = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(1, 4))}
    start = {k: rng.normal(size=v.shape) for k, v in target.items()}
    flat_target = np.concatenate(list(target.values()), axis=None)

    def grad_fn(p):
        return {k: p[k] - target[k] for k in p}

    for wd in (0.0, 5e-4, 0.05):
        expected = reference_adam(start, grad_fn, lr=0.01, wd=wd, steps=10)
        state = d.AdamState(lr=0.01, weight_decay=wd)
        params = np.concatenate(list(start.values()), axis=None)
        for _ in range(10):
            d.adam_step(state, params, params - flat_target)
        assert np.allclose(params, np.concatenate(list(expected.values()), axis=None),
                           atol=1e-10), wd


def test_weight_decay_acts_as_l2_gradient_term():
    # with zero loss gradient, decay alone must shrink weights toward zero
    state = d.AdamState(lr=0.01, weight_decay=0.1)
    params = np.array([[4.0]])
    for _ in range(50):
        d.adam_step(state, params, np.zeros((1, 1)))
    assert 0 < params[0, 0] < 4.0


def test_update_is_in_place_and_returns_params():
    state = d.AdamState(lr=0.5)
    params = np.array([[1.0]])
    out = d.adam_step(state, params, np.array([[1.0]]))
    assert out is params
    assert params[0, 0] != 1.0


def test_missing_gradient_and_shape_mismatch_raise():
    # a gradient buffer that misses entries, or has another shape, is refused
    # before the step count or the moments move
    state = d.AdamState()
    with pytest.raises(ValueError):
        d.adam_step(state, np.zeros(4), np.zeros(3))
    with pytest.raises(ValueError):
        d.adam_step(state, np.zeros((2, 2)), np.zeros((2, 3)))
    assert state.step_count == 0 and state.m is None and state.v is None


def test_step_count_advances_once_per_call():
    state = d.AdamState()
    params = np.zeros((1, 1))
    for expected in (1, 2, 3):
        d.adam_step(state, params, np.ones((1, 1)))
        assert state.step_count == expected


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
@pytest.mark.parametrize("backbone", d.BACKBONES)
def test_flat_step_matches_per_tensor_oracle_bitwise(backbone, weight_decay):
    # 20 steps over a model's layout; one tensor at a time goes without a
    # gradient and steps on the zeros zero_grads leaves in its view of params.grad
    rng = np.random.default_rng(17)
    params = d.init_model(backbone, 5, 3, hidden_dim=4, rng=np.random.default_rng(2))
    names = list(params.params)
    ref = {name: v.copy() for name, v in params.named_values().items()}
    flat_state = d.AdamState(lr=0.01, weight_decay=weight_decay)
    ref_state = d.AdamState(lr=0.01, weight_decay=weight_decay, m={}, v={})
    for step in range(20):
        params.zero_grads()
        grads = {}
        for i, (name, t) in enumerate(params.params.items()):
            grads[name] = np.zeros(t.shape)
            if i != step % len(names):
                t.grad[...] = grads[name] = rng.normal(scale=10.0 ** rng.integers(-3, 2), size=t.shape)
        d.adam_step(flat_state, params.flat, params.grad)
        oracles.adam_step(ref_state, ref, grads)
        for name in names:
            assert params.params[name].values.tobytes() == ref[name].tobytes(), (step, name)
    assert flat_state.m.tobytes() == np.concatenate(list(ref_state.m.values()), axis=None).tobytes()
    assert flat_state.v.tobytes() == np.concatenate(list(ref_state.v.values()), axis=None).tobytes()
