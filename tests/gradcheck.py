"""Central-difference oracle for the tests: checks hand-derived gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from fld.numerics import Parameter


def gradient_check(loss_fn: Callable[[], float], params: list[Parameter],
                   h: float = 1e-6, sample: int | None = None,
                   rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn`` must be deterministic, take no arguments, and populate
    ``p.grad`` for every parameter as a side effect (gradients are zeroed
    here before the analytic pass). ``sample`` limits the probe to that many
    randomly chosen coordinates per parameter; the full sweep is quadratic
    in model size and only sensible for tiny models.

    Relative error per coordinate: |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-8).
    """
    for p in params:
        p.zero_grad()
    loss_fn()
    analytic = {p.name: p.grad.copy() for p in params}

    if sample is not None and rng is None:
        rng = np.random.default_rng(0)

    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        n = flat.size
        if sample is None or sample >= n:
            idx = np.arange(n)
        else:
            idx = rng.choice(n, size=sample, replace=False)
        a_flat = analytic[p.name].reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            loss_plus = float(loss_fn())
            flat[i] = orig - h
            loss_minus = float(loss_fn())
            flat[i] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst
