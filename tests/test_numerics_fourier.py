import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fld.numerics import rfft, rfft_backward
from fourier_oracles import _full_spectrum_weights, naive_dft, rfft_adjoint, spectrum_inner


def spectrum(x):
    # the (real, imaginary) planes rfft returns, as one complex array
    re, im = rfft(x)
    return re + 1j * im


def dft_oracle(x):
    # Independent O(H^2) loop implementation, kept free of library code.
    h = len(x)
    out = np.zeros(h // 2 + 1, dtype=complex)
    for j in range(h // 2 + 1):
        for t in range(h):
            out[j] += x[t] * np.exp(-2j * np.pi * j * t / h)
    return out


def test_constant_signal_concentrates_in_dc():
    v = 0.37
    spec = spectrum(np.full(8, v))
    assert abs(spec[0] - 8 * v) < 1e-12
    assert np.all(np.abs(spec[1:]) < 1e-12)


def test_bin_aligned_sine_hits_single_bin():
    t = np.arange(8)
    spec = spectrum(np.sin(2 * np.pi * 2 * t / 8))
    mags = np.abs(spec)
    assert abs(mags[2] - 4.0) < 1e-12
    other = np.delete(mags, 2)
    assert np.all(other < 1e-12)


def test_matches_naive_dft_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=51)
    assert np.max(np.abs(spectrum(x) - dft_oracle(x))) < 1e-10
    assert np.max(np.abs(naive_dft(x) - dft_oracle(x))) < 1e-10


@pytest.mark.parametrize("h", [2, 3, 8, 17, 50, 51])
def test_fast_path_matches_naive_all_lengths(h):
    rng = np.random.default_rng(h)
    x = rng.normal(size=(3, h))
    assert np.max(np.abs(spectrum(x) - naive_dft(x))) < 1e-10


def test_rejects_too_short_signal():
    with pytest.raises(ValueError):
        rfft(np.ones(1))
    with pytest.raises(ValueError):
        naive_dft(np.ones(1))


@settings(max_examples=30, deadline=None)
@given(h=st.integers(min_value=2, max_value=40), seed=st.integers(0, 2**31))
def test_adjoint_identity_and_inner_product(h, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=h)
    y = rng.normal(size=h // 2 + 1) + 1j * rng.normal(size=h // 2 + 1)
    # adjoint o forward == H * identity on real signals
    assert np.max(np.abs(rfft_adjoint(spectrum(x), h) - h * x)) < 1e-10 * max(1.0, h)
    # <rfft(x), y>_spec == <x, adjoint(y)>
    lhs = spectrum_inner(spectrum(x), y, h)
    rhs = float(np.dot(x, rfft_adjoint(y, h)))
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_backward_is_plain_transpose():
    # <rfft(x), g> with g as independent real coordinates == <x, backward(g)>
    rng = np.random.default_rng(3)
    h = 13
    x = rng.normal(size=h)
    gr = rng.normal(size=h // 2 + 1)
    gi = rng.normal(size=h // 2 + 1)
    re, im = rfft(x)
    lhs = float(np.sum(gr * re + gi * im))
    rhs = float(np.dot(x, rfft_backward(gr, gi, h)))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 12
    x = rng.normal(size=h)
    wr = rng.normal(size=h // 2 + 1)
    wi = rng.normal(size=h // 2 + 1)

    def loss(sig):
        spec = naive_dft(sig)
        return float(np.sum(wr * spec.real + wi * spec.imag))

    analytic = rfft_backward(wr, wi, h)
    eps = 1e-6
    for t in range(h):
        xp = x.copy(); xp[t] += eps
        xm = x.copy(); xm[t] -= eps
        numeric = (loss(xp) - loss(xm)) / (2 * eps)
        assert abs(analytic[t] - numeric) < 1e-6


shapes = st.tuples(st.lists(st.integers(1, 4), max_size=3), st.integers(2, 64))


@settings(max_examples=40)
@given(shape=shapes, seed=st.integers(0, 2**31))
def test_rfft_matches_the_naive_dft_on_any_shape(shape, seed):
    lead, h = shape
    x = np.random.default_rng(seed).normal(size=(*lead, h))
    re, im = rfft(x)
    assert re.shape == im.shape == (*lead, h // 2 + 1)
    want = naive_dft(x)
    bound = 1e-12 * h * max(1.0, np.max(np.abs(x)))
    assert np.max(np.abs(re - want.real)) <= bound
    assert np.max(np.abs(im - want.imag)) <= bound


@settings(max_examples=40)
@given(shape=shapes, seed=st.integers(0, 2**31))
def test_rfft_backward_is_the_transpose_and_a_weighted_adjoint_on_any_shape(shape, seed):
    lead, h = shape
    rng = np.random.default_rng(seed)
    gr, gi = rng.normal(size=(2, *lead, h // 2 + 1))
    got = rfft_backward(gr, gi, h)
    assert got.shape == (*lead, h)
    basis = naive_dft(np.eye(h))  # row t holds exp(-2i*pi*j*t/H) over bins j
    bound = 1e-12 * h * max(1.0, np.max(np.abs(gr)), np.max(np.abs(gi)))
    assert np.max(np.abs(got - (gr @ basis.real.T + gi @ basis.imag.T))) <= bound
    # weighting each bin as the full-spectrum inner product does gives the adjoint
    w = _full_spectrum_weights(h)
    adjoint = rfft_adjoint((gr + 1j * gi).reshape(-1, h // 2 + 1), h).reshape(got.shape)
    assert np.max(np.abs(rfft_backward(w * gr, w * gi, h) - adjoint)) <= 2 * bound
