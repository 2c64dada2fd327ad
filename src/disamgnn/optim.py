"""Adam with bias correction and decoupled-from-nothing classic L2 decay.

Weight decay is folded into the gradient (g + wd * p) before the moment
updates, i.e. plain L2 regularization rather than AdamW-style decoupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AdamState", "adam_step"]

# Adam's fixed hyperparameters: the moment decay rates and the denominator floor.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 1e-3
    weight_decay: float = 5e-4
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Apply one in-place Adam update to every named parameter array."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        if name not in grads:
            raise KeyError(f"missing gradient for parameter {name!r}")
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}"
            )
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
