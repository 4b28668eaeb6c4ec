"""Adam optimizer over explicit parameter lists."""

from __future__ import annotations

import numpy as np

from .layers import Parameter, ensure_finite

# decays of the first- and second-moment averages, and the denominator's floor
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction and L2 weight decay added to the gradient;
    the betas and eps are the fixed ``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``.

    Moment state is keyed by parameter name and persists across steps; the
    same instance must be reused for the whole run.
    """

    def __init__(self, params: list[Parameter], lr: float, weight_decay: float = 0.0):
        if not 0.0 < lr < np.inf:  # NaN fails too
            raise ValueError(f"learning rate must be finite and positive, got {lr}")
        if not 0.0 <= weight_decay < np.inf:
            raise ValueError(f"weight decay must be finite and >= 0, got {weight_decay}")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for p in self.params:
            g = p.grad
            if self.weight_decay != 0.0:
                g = g + self.weight_decay * p.value
            m = self.m[p.name]
            v = self.v[p.name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            ensure_finite(p.value, f"parameter {p.name} after Adam step")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
