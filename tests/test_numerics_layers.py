import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fld.numerics import (
    Adam,
    BatchNorm1d,
    Conv1d,
    Linear,
    PerChannelLinear,
    atan2_phase,
    atan2_phase_backward,
    elu,
    elu_backward,
    ensure_finite,
    immutable,
    relu,
    relu_backward,
    softplus,
    softplus_backward,
)
from fld.numerics import layers
from fld.numerics.fourier import dft_matrices
from fld.numerics.layers import BN_EPS


def conv_oracle(x, w, b):
    """O(n*k) sliding dot product on time-major (L, C, B) input,
    independent of the library's path."""
    length, cin, batch = x.shape
    cout, _, k = w.shape
    pad = (k - 1) // 2
    xp = np.zeros((length + 2 * pad, cin, batch))
    xp[pad:pad + length] = x
    y = np.zeros((length, cout, batch))
    for bi in range(batch):
        for o in range(cout):
            for t in range(length):
                y[t, o, bi] = np.sum(xp[t:t + k, :, bi] * w[o].T) + b[o]
    return y


def conv_oracle_backward(x, w, g):
    """Sliding-window (dW, dx) for the loss sum(y * g), time-major like
    :func:`conv_oracle`, independent of the library's path."""
    length = x.shape[0]
    k = w.shape[2]
    pad = (k - 1) // 2
    xp = np.zeros((length + 2 * pad,) + x.shape[1:])
    xp[pad:pad + length] = x
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for t in range(length):
        for kap in range(k):
            dw[:, :, kap] += g[t] @ xp[t + kap].T
            dxp[t + kap] += w[:, :, kap].T @ g[t]
    return dw, dxp[pad:pad + length]


def make_conv(cin, cout, k, seed=0):
    return Conv1d(cin, cout, k, np.random.default_rng(seed), "conv")


@st.composite
def conv_shapes(draw):
    """(cin, cout, k, length, batch) with odd k up to 15, shorter and
    longer than the signal."""
    return (draw(st.integers(1, 3)), draw(st.integers(1, 3)), 2 * draw(st.integers(0, 7)) + 1,
            draw(st.integers(1, 12)), draw(st.integers(1, 3)))


class TestConv1d:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        conv = make_conv(2, 2, 5)
        w = np.zeros((2, 2, 5))
        w[0, 0, 2] = 1.0
        w[1, 1, 2] = 1.0
        conv.weight.value[:] = w
        conv.bias.value[:] = 0.0
        x = rng.normal(size=(9, 2, 3))
        y, _ = conv.forward(x)
        assert np.max(np.abs(y - x)) < 1e-12

    def test_zero_input_gives_bias(self):
        conv = make_conv(2, 3, 3)
        y, _ = conv.forward(np.zeros((8, 2, 1)))
        expected = np.broadcast_to(conv.bias.value[None, :, None], (8, 3, 1))
        assert np.max(np.abs(y - expected)) < 1e-12

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(5)
        conv = make_conv(2, 3, 3)
        x = rng.normal(size=(8, 2, 2))
        y, _ = conv.forward(x)
        assert np.max(np.abs(y - conv_oracle(x, conv.weight.value, conv.bias.value))) < 1e-12

    def test_matches_oracle_big_kernel(self):
        rng = np.random.default_rng(6)
        conv = make_conv(3, 4, 51)
        x = rng.normal(size=(51, 3, 2))
        y, _ = conv.forward(x)
        assert np.max(np.abs(y - conv_oracle(x, conv.weight.value, conv.bias.value))) < 1e-12

    # m: the exact alias-free transform length L + (k-1)/2 the layer uses
    SHAPES = [
        (3, 4, 51, 51, 76),  # the paper shape: k = L
        (2, 3, 7, 45, 48),
        (2, 2, 9, 2, 6),     # m is shorter than the kernel
    ]

    @pytest.mark.parametrize("cin,cout,k,length,m", SHAPES + [
        (64, 27, 51, 51, 76),  # the decoder's output conv at the paper channels
    ])
    def test_forward_and_backward_match_sliding_window_oracle(self, cin, cout, k, length, m):
        assert length + (k - 1) // 2 == m
        rng = np.random.default_rng(11)
        conv = make_conv(cin, cout, k)
        x = rng.normal(size=(length, cin, 3))
        g = rng.normal(size=(length, cout, 3))
        y, cache = conv.forward(x)
        assert cache["x_spec"].shape == (m // 2 + 1, 2 * cin, 3)
        assert np.max(np.abs(y - conv_oracle(x, conv.weight.value, conv.bias.value))) < 1e-12
        conv.weight.zero_grad()
        dx = conv.backward(g, cache)
        dw_ref, dx_ref = conv_oracle_backward(x, conv.weight.value, g)
        assert np.max(np.abs(conv.weight.grad - dw_ref)) < 1e-12
        assert np.max(np.abs(dx - dx_ref)) < 1e-12

    @pytest.mark.parametrize("cin,cout,k,length,m", SHAPES)
    def test_dft_matrices_match_numpy_fft(self, cin, cout, k, length, m):
        forward, inverse, kernel = dft_matrices(length, k)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(5, length))
        spec = np.fft.rfft(x, n=m)
        as_rows = np.stack([spec.real, spec.imag], axis=-1).reshape(5, -1)
        assert np.max(np.abs(x @ forward.T - as_rows)) < 1e-12
        assert np.max(np.abs(as_rows @ inverse - np.fft.irfft(spec, n=m)[:, :length])) < 1e-12
        pad = (k - 1) // 2
        w = rng.normal(size=(5, k))
        lags = np.zeros((5, m))
        # lag s at index s mod m; lags that wrap onto one index add up
        np.add.at(lags, (slice(None), np.arange(-pad, pad + 1) % m), w)
        kspec = np.conj(np.fft.rfft(lags))
        assert np.max(np.abs(w @ kernel.T
                             - np.stack([kspec.real, kspec.imag], axis=-1).reshape(5, -1))) < 1e-12
        assert not (forward.flags.writeable or inverse.flags.writeable or kernel.flags.writeable)

    def test_weights_written_in_place_are_not_served_stale(self):
        rng = np.random.default_rng(12)
        conv = make_conv(3, 4, 7)
        x = rng.normal(size=(12, 3, 2))
        conv.forward(x)
        conv.weight.value[...] *= 0.5
        y, _ = conv.forward(x)
        assert np.max(np.abs(y - conv_oracle(x, conv.weight.value, conv.bias.value))) < 1e-12

        conv.weight.grad[...] = rng.normal(size=conv.weight.value.shape)
        Adam([conv.weight], lr=0.1).step()
        y, _ = conv.forward(x)
        assert np.max(np.abs(y - conv_oracle(x, conv.weight.value, conv.bias.value))) < 1e-12

    def test_immutable_weights_keep_their_blocks_by_identity(self):
        rng = np.random.default_rng(15)
        conv = make_conv(3, 4, 7)
        conv.weight.value = immutable(conv.weight.value)
        x = rng.normal(size=(12, 3, 2))
        y, _ = conv.forward(x)
        blocks = conv._blocks
        assert np.array_equal(conv.forward(x)[0], y) and conv._blocks is blocks
        for value in (immutable(0.5 * conv.weight.value), -conv.weight.value):
            conv.weight.value = value
            y, _ = conv.forward(x)
            assert conv._blocks is not blocks
            blocks = conv._blocks
            assert np.max(np.abs(y - conv_oracle(x, conv.weight.value, conv.bias.value))) < 1e-12
        # the writable weights last set keep no blocks
        assert blocks is None

    def test_writable_weights_keep_no_blocks(self):
        rng = np.random.default_rng(16)
        conv = make_conv(3, 4, 7)
        y, cache = conv.forward(rng.normal(size=(12, 3, 2)))
        assert conv._blocks is None
        conv.backward(np.ones_like(y), cache)
        assert conv._blocks is None

    def test_backward_consumes_its_spectrum(self):
        rng = np.random.default_rng(17)
        conv = Conv1d(3, 4, 5, rng, "dec.conv1")
        y, cache = conv.forward(rng.normal(size=(9, 3, 2)))
        spectrum = weakref.ref(cache["x_spec"])
        conv.backward(np.ones_like(y), cache)
        # the caller still holds the cache; the spectrum is gone from it
        assert "x_spec" not in cache and spectrum() is None
        with pytest.raises(ValueError, match="dec.conv1: backward cache already consumed"):
            conv.backward(np.ones_like(y), cache)

    def test_backward_frees_the_spectrum_before_building_dx(self):
        # dW reads the spectrum first and frees it, so dx's spectrum takes
        # its place: above the forward's memory the backward needs g's
        # spectrum and dW's bin buffers only, where holding the input
        # spectrum to the end would need two spectra at least
        rng = np.random.default_rng(18)
        conv = make_conv(4, 4, 5)
        x, g = rng.normal(size=(2, 20, 4, 64))
        tracemalloc.start()
        try:
            _, cache = conv.forward(x)
            spectrum_bytes = cache["x_spec"].nbytes
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            conv.backward(g, cache)
            extra = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert extra < 1.6 * spectrum_bytes

    def test_cold_and_warm_layers_agree_bitwise(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(51, 3, 2))
        warm, cold = make_conv(3, 4, 51), make_conv(3, 4, 51)
        for conv in (warm, cold):
            conv.weight.value = immutable(conv.weight.value)
        warm.forward(rng.normal(size=(51, 3, 5)))
        assert warm._blocks is not None
        assert np.array_equal(warm.forward(x)[0], cold.forward(x)[0])

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            make_conv(1, 1, 4)

    def test_shape_mismatch_rejected(self):
        conv = make_conv(2, 3, 3)
        with pytest.raises(ValueError):
            conv.forward(np.zeros((8, 5, 1)))

    @settings(max_examples=60)
    @given(shape=conv_shapes(), seed=st.integers(0, 2**31))
    def test_any_shape_matches_sliding_window_oracle(self, shape, seed):
        cin, cout, k, length, batch = shape
        rng = np.random.default_rng(seed)
        conv = Conv1d(cin, cout, k, rng, "conv")
        x = rng.normal(size=(length, cin, batch))
        g = rng.normal(size=(length, cout, batch))
        y, cache = conv.forward(x)
        assert y.shape == (length, cout, batch)
        assert np.max(np.abs(y - conv_oracle(x, conv.weight.value, conv.bias.value))) < 1e-12
        dx = conv.backward(g, cache)
        dw_ref, dx_ref = conv_oracle_backward(x, conv.weight.value, g)
        assert np.max(np.abs(conv.weight.grad - dw_ref)) < 1e-12
        assert np.max(np.abs(dx - dx_ref)) < 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        conv = make_conv(2, 3, 5)
        x = rng.normal(size=(7, 2, 2))
        g = rng.normal(size=(7, 3, 2))

        def loss(xv, wv, bv):
            return np.sum(conv_oracle(xv, wv, bv) * g)

        y, cache = conv.forward(x)
        conv.weight.zero_grad()
        conv.bias.zero_grad()
        dx = conv.backward(g, cache)

        eps = 1e-6
        for arr, grad, pick in [
            (x, dx, lambda a: loss(a, conv.weight.value, conv.bias.value)),
            (conv.weight.value, conv.weight.grad, lambda a: loss(x, a, conv.bias.value)),
            (conv.bias.value, conv.bias.grad, lambda a: loss(x, conv.weight.value, a)),
        ]:
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            idx = np.random.default_rng(0).choice(flat.size, size=min(12, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                lp = pick(arr)
                flat[i] = orig - eps
                lm = pick(arr)
                flat[i] = orig
                numeric = (lp - lm) / (2 * eps)
                assert abs(gflat[i] - numeric) < 1e-5 * max(1.0, abs(numeric))


class TestBatchNorm1d:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm1d(3, "bn")
        x = rng.normal(loc=2.0, scale=4.0, size=(8, 3, 10))
        y, _ = bn.forward(x, mode="train")
        # gamma=1, beta=0: per-channel mean ~0, var ~1 (up to eps shrinkage)
        assert np.max(np.abs(y.mean(axis=(0, 2)))) < 1e-10
        assert np.max(np.abs(y.var(axis=(0, 2)) - 1.0)) < 1e-4

    def test_zero_gamma_gives_beta(self):
        bn = BatchNorm1d(2, "bn")
        bn.gamma.value[:] = 0.0
        bn.beta.value[:] = [3.0, -1.0]
        y, _ = bn.forward(np.random.default_rng(0).normal(size=(4, 2, 5)), mode="train")
        assert np.allclose(y[:, 0], 3.0) and np.allclose(y[:, 1], -1.0)

    def test_batch_of_one_rejected_in_train(self):
        # the rule is values per channel, whichever axis holds them; (1, C, 1)
        # is the phase head's batch of one
        bn = BatchNorm1d(2, "bn")
        with pytest.raises(ValueError, match=">= 2 values per channel"):
            bn.forward(np.zeros((1, 2, 1)), mode="train")
        x = np.random.default_rng(1).normal(size=(1, 2, 5))
        y, _ = bn.forward(x, mode="train")
        assert np.max(np.abs(y.mean(axis=(0, 2)))) < 1e-12
        # eval mode is fine with a single item
        bn.forward(np.zeros((1, 2, 1)), mode="eval")

    def test_two_dimensional_input_rejected(self):
        bn = BatchNorm1d(2, "bn")
        for mode in ("train", "eval"):
            with pytest.raises(ValueError, match=r"expected input \(length, 2, batch\)"):
                bn.forward(np.zeros((6, 2)), mode=mode)

    def test_eval_is_forward_only(self):
        bn = BatchNorm1d(2, "bn")
        bn.running_mean[:] = [0.3, -0.2]
        bn.running_var[:] = [1.5, 0.6]
        x = np.random.default_rng(3).normal(size=(4, 2, 5))
        y, cache = bn.forward(x, mode="eval")
        assert cache is None
        scale, shift = bn.eval_affine()
        assert np.array_equal(y, x * scale[:, None] + shift[:, None])
        with pytest.raises(ValueError, match="forward-only"):
            bn.backward(np.ones_like(y), cache)
        assert not bn.gamma.grad.any() and not bn.beta.grad.any()

    def test_running_stats_track_batches(self):
        rng = np.random.default_rng(4)
        bn = BatchNorm1d(1, "bn")
        x = rng.normal(loc=5.0, size=(16, 1, 4))
        for _ in range(200):
            bn.forward(x, mode="train")
        assert abs(bn.running_mean[0] - x.mean()) < 1e-6
        y, _ = bn.forward(x[:1], mode="eval")
        expected = (x[:1] - bn.running_mean) / np.sqrt(bn.running_var + BN_EPS)
        assert np.allclose(y, expected)

    def test_backward_matches_finite_differences(self):
        self.check_backward_against_finite_differences("train", (4, 2, 8))

    # (1, C, B) is the phase head's batch norm; eval mode has no backward
    @pytest.mark.parametrize("mode,shape", [("train", (1, 2, 6))], ids=["train-phase-head"])
    def test_backward_matches_finite_differences_by_mode_and_rank(self, mode, shape):
        self.check_backward_against_finite_differences(mode, shape)

    @staticmethod
    def check_backward_against_finite_differences(mode, shape):
        rng = np.random.default_rng(8)
        x = rng.normal(size=shape)
        g = rng.normal(size=shape)

        def fresh():
            b = BatchNorm1d(2, "bn")
            b.gamma.value[:] = [1.3, 0.7]
            b.beta.value[:] = [0.2, -0.4]
            b.running_mean[:] = [0.3, -0.2]
            b.running_var[:] = [1.5, 0.6]
            return b

        bn = fresh()
        y, cache = bn.forward(x, mode=mode)
        dx = bn.backward(g, cache)

        eps = 1e-6
        idx = rng.choice(x.size, size=10, replace=False)
        for i in idx:
            xp = x.copy(); xp.reshape(-1)[i] += eps
            xm = x.copy(); xm.reshape(-1)[i] -= eps
            lp = np.sum(fresh().forward(xp, mode=mode)[0] * g)
            lm = np.sum(fresh().forward(xm, mode=mode)[0] * g)
            numeric = (lp - lm) / (2 * eps)
            assert abs(dx.reshape(-1)[i] - numeric) < 1e-6 * max(1.0, abs(numeric))
        # parameter grads
        for param in ("gamma", "beta"):
            bnp = fresh()
            _, c = bnp.forward(x, mode=mode)
            bnp.backward(g, c)
            analytic = getattr(bnp, param).grad
            for j in range(2):
                bp = fresh(); bm = fresh()
                getattr(bp, param).value[j] += eps
                getattr(bm, param).value[j] -= eps
                lp = np.sum(bp.forward(x, mode=mode)[0] * g)
                lm = np.sum(bm.forward(x, mode=mode)[0] * g)
                numeric = (lp - lm) / (2 * eps)
                assert abs(analytic[j] - numeric) < 1e-6 * max(1.0, abs(numeric))

    def test_train_cache_does_not_hold_the_input(self):
        # a conv hands batch norm a view of its longer inverse-FFT buffer;
        # caching that view would keep the whole buffer alive until backward
        rng = np.random.default_rng(5)
        buffer = rng.normal(size=(4, 3, 12))
        x = buffer[:, :, :8]
        _, cache = BatchNorm1d(3, "bn").forward(x, mode="train")
        arrays = [v for v in cache.values() if isinstance(v, np.ndarray)]
        assert arrays
        assert not any(np.shares_memory(a, buffer) for a in arrays)


def slab_rows(height, channels, batch):
    """Patch batch norm's slab size to ``height`` rows of a (L, C, B) array."""
    return mock.patch.object(layers, "BN_SLAB_VALUES", height * channels * batch)


class TestFusedBatchNormElu:
    """Batch norm with ``activate=True``, the fused block's batch norm and
    ELU, against the BatchNorm1d -> elu composition it replaces."""

    @staticmethod
    def twins(channels, rng):
        """Two batch norms with the same drawn parameters and running statistics."""
        gamma, beta = rng.uniform(0.5, 2.0, channels), rng.normal(size=channels)
        mean, var = rng.normal(size=channels), rng.uniform(0.5, 2.0, channels)
        out = []
        for _ in range(2):
            bn = BatchNorm1d(channels, "bn")
            bn.gamma.value[:], bn.beta.value[:] = gamma, beta
            bn.running_mean[:], bn.running_var[:] = mean, var
            out.append(bn)
        return out

    @settings(max_examples=60)
    @given(length=st.integers(1, 9), channels=st.integers(1, 3), batch=st.integers(1, 4),
           height=st.integers(1, 4), mode=st.sampled_from(["train", "eval"]),
           seed=st.integers(0, 2 ** 16))
    @example(length=1, channels=2, batch=2, height=3, mode="train", seed=0)  # L*B = 2
    @example(length=2, channels=3, batch=1, height=4, mode="train", seed=1)  # L*B = 2
    @example(length=7, channels=2, batch=3, height=3, mode="train", seed=2)  # 7 = 3 + 3 + 1
    @example(length=5, channels=1, batch=2, height=2, mode="eval", seed=3)
    def test_matches_the_unfused_composition(self, length, channels, batch, height, mode, seed):
        assume(mode == "eval" or length * batch >= 2)
        rng = np.random.default_rng(seed)
        x = rng.normal(loc=0.4, scale=1.7, size=(length, channels, batch))
        g = rng.normal(size=x.shape)
        fused, plain = self.twins(channels, rng)
        buffer = x.copy()
        with slab_rows(height, channels, batch):
            normed, c_bn = plain.forward(x, mode)
            want, c_act = elu(normed)
            got, cache = fused.forward(buffer, mode, activate=True)
            # same slabs and steps, so the forward is bitwise the composition's
            assert got is buffer and got.tobytes() == want.tobytes()
            assert np.array_equal(fused.running_mean, plain.running_mean)
            assert np.array_equal(fused.running_var, plain.running_var)
            if mode == "eval":
                assert cache is None
                return
            assert sorted(cache) == ["activated", "std", "x_hat"]
            dx = fused.backward(g, cache)
            want_dx = plain.backward(elu_backward(g, c_act), c_bn)
        # ELU' as exp(min(u, 0)) against y + 1: equal to rounding
        for a, b in [(dx, want_dx), (fused.gamma.grad, plain.gamma.grad),
                     (fused.beta.grad, plain.beta.grad)]:
            assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1.0)
        # and the slab-merged statistics against whole-array numpy
        oracle = (x - x.mean(axis=(0, 2))[:, None]) / np.sqrt(x.var(axis=(0, 2)) + BN_EPS)[:, None]
        oracle = elu(oracle * fused.gamma.value[:, None] + fused.beta.value[:, None])[0]
        assert np.max(np.abs(got - oracle)) <= 1e-12 * max(np.max(np.abs(oracle)), 1.0)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, mode, bad):
        # -inf would leave ELU as -1, so the check runs before ELU
        x = np.random.default_rng(6).normal(size=(5, 2, 3))
        x[3, 1, 2] = bad
        with slab_rows(1, 2, 3), np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite values in batchnorm output"):
                BatchNorm1d(2, "bn").forward(x, mode, activate=True)


class TestLinear:
    def test_identity_passthrough(self):
        lin = Linear(3, 3, np.random.default_rng(0), "lin")
        lin.weight.value[:] = np.eye(3)
        lin.bias.value[:] = 0.0
        x = np.random.default_rng(1).normal(size=(4, 3))
        y, _ = lin.forward(x)
        assert np.allclose(y, x)

    def test_zero_weights_give_bias(self):
        lin = Linear(3, 2, np.random.default_rng(0), "lin")
        lin.weight.value[:] = 0.0
        lin.bias.value[:] = [1.0, -2.0]
        y, _ = lin.forward(np.ones((5, 3)))
        assert np.allclose(y, [1.0, -2.0])

    def test_matches_matmul_oracle_and_backward(self):
        rng = np.random.default_rng(3)
        lin = Linear(2, 3, rng, "lin")
        x = rng.normal(size=(4, 2))
        y, cache = lin.forward(x)
        assert np.allclose(y, x @ lin.weight.value.T + lin.bias.value)

        g = rng.normal(size=(4, 3))
        dx = lin.backward(g, cache)
        assert np.allclose(dx, g @ lin.weight.value)
        assert np.allclose(lin.weight.grad, g.T @ x)
        assert np.allclose(lin.bias.grad, g.sum(axis=0))

    def test_shape_mismatch(self):
        lin = Linear(3, 2, np.random.default_rng(0), "lin")
        with pytest.raises(ValueError):
            lin.forward(np.zeros((4, 5)))


class TestPerChannelLinear:
    def test_matches_per_channel_matmul(self):
        rng = np.random.default_rng(2)
        pcl = PerChannelLinear(3, 5, 2, rng, "phase")
        x = rng.normal(size=(4, 3, 5))
        y, cache = pcl.forward(x)
        for c in range(3):
            expected = x[:, c] @ pcl.weight.value[c].T
            assert np.allclose(y[:, c], expected)
        g = rng.normal(size=(4, 3, 2))
        dx = pcl.backward(g, cache)
        eps = 1e-6
        for i in rng.choice(x.size, size=8, replace=False):
            xp = x.copy(); xp.reshape(-1)[i] += eps
            xm = x.copy(); xm.reshape(-1)[i] -= eps
            numeric = (np.sum(pcl.forward(xp)[0] * g) - np.sum(pcl.forward(xm)[0] * g)) / (2 * eps)
            assert abs(dx.reshape(-1)[i] - numeric) < 1e-6


class TestActivations:
    def test_elu_values(self):
        y, _ = elu(np.array([-50.0, 0.0, 3.0]))
        assert abs(y[0] + 1.0) < 1e-9
        assert y[1] == 0.0
        assert y[2] == 3.0

    def test_elu_matches_branch_formula_at_edge_points(self):
        x = np.array([-800.0, -50.0, -1e-300, -0.0, 0.0, 5e-324, 3.0])
        y, cache = elu(x)
        assert np.array_equal(y, np.where(x <= 0, np.expm1(np.minimum(x, 0)), x))
        g = np.linspace(-2.0, 2.5, x.size)
        dx = elu_backward(g, cache)
        neg = x <= 0
        assert np.array_equal(dx[~neg], g[~neg])
        # y + 1 rounds exp(x) to the spacing of 1.0
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(dx[neg], g[neg] * np.exp(x[neg]), rtol=eps,
                                   atol=eps * np.max(np.abs(g)))

    def test_elu_is_bitwise_the_three_term_form_on_an_edge_grid(self):
        magnitudes = np.geomspace(5e-324, 1e3, 100_000)
        subnormals = np.arange(1, 10_001) * 5e-324
        tiny = np.finfo(np.float64).tiny
        x = np.concatenate([magnitudes, -magnitudes, subnormals, -subnormals,
                            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny]])
        want = np.expm1(np.minimum(x, 0.0)) + np.maximum(x, 0.0)
        assert elu(x)[0].tobytes() == want.tobytes()

    def test_relu_values(self):
        y, _ = relu(np.array([-2.0, 3.0]))
        assert y[0] == 0.0 and y[1] == 3.0

    def test_softplus_at_zero_is_log_two(self):
        y, _ = softplus(np.array([0.0]))
        assert abs(y[0] - np.log(2.0)) < 1e-12

    def test_softplus_positive_everywhere(self):
        y, _ = softplus(np.linspace(-60, 60, 101))
        assert np.all(y > 0.0)

    @pytest.mark.parametrize("fn,bwd", [(elu, elu_backward), (relu, relu_backward),
                                        (softplus, softplus_backward)])
    def test_backward_matches_finite_differences(self, fn, bwd):
        rng = np.random.default_rng(0)
        x = rng.normal(size=32) * 2.0
        x = x[np.abs(x) > 1e-3]  # keep away from relu's kink
        g = rng.normal(size=x.shape)
        _, cache = fn(x)
        dx = bwd(g, cache)
        eps = 1e-6
        for i in range(x.size):
            xp = x.copy(); xp[i] += eps
            xm = x.copy(); xm[i] -= eps
            numeric = (np.sum(fn(xp)[0] * g) - np.sum(fn(xm)[0] * g)) / (2 * eps)
            assert abs(dx[i] - numeric) < 1e-5 * max(1.0, abs(numeric))


class TestEnsureFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 7, 14])
    def test_rejects_non_finite_anywhere(self, bad, where):
        arr = np.linspace(-1.0, 1.0, 15)
        arr[where] = bad
        with pytest.raises(FloatingPointError, match="probe"):
            ensure_finite(arr.reshape(3, 5), "probe")

    @pytest.mark.parametrize("arr", [np.zeros((0, 3)), np.array([1.7e308, -1.7e308, 0.0])],
                             ids=["empty", "near-max"])
    def test_accepts_finite_and_empty(self, arr):
        assert ensure_finite(arr, "probe") is arr


class TestAtan2Phase:
    def test_cardinal_points(self):
        assert atan2_phase(np.array(0.0), np.array(1.0))[0] == 0.0
        assert abs(atan2_phase(np.array(1.0), np.array(0.0))[0] - 0.25) < 1e-15
        assert abs(atan2_phase(np.array(-1.0), np.array(-1.0))[0] - (-0.375)) < 1e-15

    def test_range_is_half_open(self):
        phi, _ = atan2_phase(np.array([0.0]), np.array([-1.0]))
        assert phi[0] == -0.5  # +0.5 wraps to the closed end

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            atan2_phase(np.array([0.0]), np.array([0.0]))

    def test_backward_formulas(self):
        rng = np.random.default_rng(1)
        sx = rng.normal(size=16)
        sy = rng.normal(size=16)
        g = rng.normal(size=16)
        phi, cache = atan2_phase(sy, sx)
        dsy, dsx = atan2_phase_backward(g, cache)
        r2 = sx**2 + sy**2
        assert np.allclose(dsx, g * (-sy) / (2 * np.pi * r2))
        assert np.allclose(dsy, g * sx / (2 * np.pi * r2))
        eps = 1e-7
        for i in range(4):
            numeric = (atan2_phase(sy + eps * (np.arange(16) == i), sx)[0][i]
                       - atan2_phase(sy - eps * (np.arange(16) == i), sx)[0][i]) / (2 * eps)
            assert abs(dsy[i] / g[i] - numeric) < 1e-6
