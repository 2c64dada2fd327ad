"""Adam with bias correction and decoupled-from-nothing classic L2 decay.

Weight decay is folded into the gradient (g + wd * p) before the moment
updates, i.e. plain L2 regularization rather than AdamW-style decoupling.
The step works on the model's one flat parameter buffer (``ModelParams.flat``)
and its gradient in the same layout, so every parameter moves with one set
of elementwise ops; each element's arithmetic is that of a per-tensor step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AdamState", "adam_step"]

# Adam's fixed hyperparameters: the moment decay rates and the denominator floor.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 1e-3
    weight_decay: float = 5e-4
    step_count: int = 0
    m: np.ndarray | None = None  # first moments, in the parameters' layout
    v: np.ndarray | None = None  # second moments, likewise


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Apply one in-place Adam update to ``params`` with gradient ``grads`` of the same shape."""
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    g = grads + state.weight_decay * params if state.weight_decay else grads
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    params -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return params
