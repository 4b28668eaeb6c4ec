import numpy as np
import pytest

from fld.numerics import Adam, Parameter
from gradcheck import gradient_check


def adam_oracle(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0, x0=0.0):
    """Hand-rolled scalar Adam recurrence."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        g = g + wd * x
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x -= lr * mhat / (np.sqrt(vhat) + eps)
    return x


def test_zero_gradient_leaves_params_unchanged():
    p = Parameter("p", np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.1)
    before = p.value.copy()
    opt.step()
    assert np.array_equal(p.value, before)


def test_first_step_is_bias_corrected_lr():
    p = Parameter("p", np.array([0.0]))
    opt = Adam([p], lr=0.1)
    p.grad[:] = 1.0
    opt.step()
    expected = adam_oracle([1.0], lr=0.1)
    assert abs(p.value[0] - expected) < 1e-15
    assert abs(p.value[0] + 0.1) < 1e-8  # ~ -lr after bias correction


def test_matches_reference_recurrence_with_sign_flips():
    p = Parameter("p", np.array([0.5]))
    opt = Adam([p], lr=0.05, weight_decay=0.01)
    grads = [1.0, -1.0]
    expected = 0.5
    x, m, v = 0.5, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        p.zero_grad()
        p.grad[:] = g
        opt.step()
        g = g + 0.01 * x
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert abs(p.value[0] - x) < 1e-12


def test_moment_state_persists_across_steps():
    p = Parameter("p", np.array([0.0]))
    opt = Adam([p], lr=0.1)
    p.grad[:] = 1.0
    opt.step()
    first = p.value[0]
    p.zero_grad()
    p.grad[:] = 1.0
    opt.step()
    expected = adam_oracle([1.0, 1.0], lr=0.1)
    assert abs(p.value[0] - expected) < 1e-14
    assert p.value[0] < first


def test_invalid_lr_rejected():
    with pytest.raises(ValueError):
        Adam([Parameter("p", np.zeros(1))], lr=0.0)


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Adam([Parameter("p", np.zeros(1)), Parameter("p", np.zeros(2))], lr=0.1)


class TestGradientCheck:
    def test_quadratic_loss(self):
        p = Parameter("x", np.array([3.0]))

        def loss():
            p.grad[:] = 2.0 * p.value
            return float(p.value[0] ** 2)

        assert gradient_check(loss, [p]) < 1e-9

    def test_detects_corrupted_backward(self):
        p = Parameter("x", np.array([3.0]))

        def loss():
            p.grad[:] = 2.0 * (2.0 * p.value)  # backward deliberately doubled
            return float(p.value[0] ** 2)

        # |2g - g| / max(2g, g) = 0.5 under the max-normalized definition
        err = gradient_check(loss, [p])
        assert abs(err - 0.5) < 1e-3

    def test_sampled_subset(self):
        p = Parameter("x", np.arange(100, dtype=float))

        def loss():
            p.grad[:] = 2.0 * p.value
            return float(np.sum(p.value**2))

        err = gradient_check(loss, [p], sample=5, rng=np.random.default_rng(0))
        assert err < 1e-5
