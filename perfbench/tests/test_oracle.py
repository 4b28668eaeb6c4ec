"""The oracle agrees with the program's loss at a small configuration."""

import numpy as np
import pytest
from fld.model import FLDConfig, FLDModel

import oracle

CONFIG = FLDConfig(dims=4, channels=2, window=9, horizon=4, hidden=8)


@pytest.fixture
def model_and_items():
    rng = np.random.default_rng(7)
    model = FLDModel(CONFIG, rng)
    items = rng.normal(size=(3, CONFIG.horizon + 1, CONFIG.dims, CONFIG.window))
    for _ in range(3):  # move the running statistics off their initial values
        model.loss_and_grads(items + rng.normal(size=items.shape), mode="train", want_grads=False)
    return model, items


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_loss_matches_program(model_and_items, mode):
    model, items = model_and_items
    got, got_h = model.loss_and_grads(items, mode=mode, want_grads=False)
    want, want_h = oracle.propagation_loss(model.state_arrays(), CONFIG.to_dict(), items, mode)
    assert oracle.relative_gap(got, want) <= 1e-9
    np.testing.assert_allclose(got_h, want_h, rtol=1e-9)


def test_anchored_loss_with_overrides_matches_program(model_and_items):
    model, items = model_and_items
    anchor = items[:1, -1]
    got, _ = model.loss_and_grads(items[:1], mode="eval", want_grads=False,
                                  alpha=0.9, horizon=2, anchor=anchor)
    want, _ = oracle.propagation_loss(model.state_arrays(), CONFIG.to_dict(), items[:1],
                                      "eval", anchor=anchor, horizon=2, alpha=0.9)
    assert oracle.relative_gap(got, want) <= 1e-9


def test_conv1d_is_the_sliding_dot_product():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 7))
    w = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=4)
    xp = np.pad(x, ((0, 0), (0, 0), (2, 2)))
    want = np.array([[[np.sum(xp[n, :, t:t + 5] * w[o]) + b[o] for t in range(7)]
                      for o in range(4)] for n in range(2)])
    np.testing.assert_allclose(oracle.conv1d(x, w, b), want, rtol=1e-13, atol=1e-13)
