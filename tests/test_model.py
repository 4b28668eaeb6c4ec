import weakref
from unittest import mock

import numpy as np
import pytest

from fld.model import (
    FFBaseline,
    FFConfig,
    FLDConfig,
    FLDModel,
    VAEBaseline,
    VAEConfig,
    blocks_backward,
    blocks_forward,
    fold_batch_norm,
    wrap_phase,
)
from fld.numerics import Adam, BatchNorm1d, Conv1d, elu, elu_backward, layers
from fourier_oracles import naive_dft
from gradcheck import gradient_check


def dft_phase_oracle(curve, bin_index, window, dt, freq):
    """Phase (cycles, at the newest frame) of a bin-aligned sinusoid via the
    naive DFT: independent of the learned phase head."""
    spec = naive_dft(curve)[..., bin_index]
    # curve_t = a*sin(2*pi*(f*dt*t + phi')) has Re c_k ~ sin, Im c_k ~ -cos
    phi_at_first = np.arctan2(spec.real, -spec.imag) / (2 * np.pi)
    return wrap_phase(phi_at_first + freq * dt * (window - 1))


def tiny_model(seed=0, **overrides):
    kw = dict(dims=4, channels=2, window=16, horizon=3, dt=0.02, hidden=8)
    kw.update(overrides)
    cfg = FLDConfig(**kw)
    return FLDModel(cfg, np.random.default_rng(seed))


class TestSpectrumParams:
    def params_of(self, z, window, dt=0.02):
        model = tiny_model(window=window, channels=z.shape[1], dims=2)
        return model.spectrum_params(z)

    def test_bin_aligned_sinusoid_recovered_exactly(self):
        h, dt = 50, 0.02
        t = np.arange(h)
        z = (2.0 * np.sin(2 * np.pi * 3 * t / h) + 0.5)[None, None, :]
        f, a, b, _ = self.params_of(z, h, dt)
        assert abs(f[0, 0] - 3.0) < 1e-9     # 3 cycles / (50 * 0.02 s)
        assert abs(a[0, 0] - 2.0) < 1e-9
        assert abs(b[0, 0] - 0.5) < 1e-9

    def test_constant_curve_conventions(self):
        z = np.full((1, 1, 20), 0.7)
        f, a, b, _ = self.params_of(z, 20)
        assert f[0, 0] == 0.0
        assert a[0, 0] < 1e-12
        assert abs(b[0, 0] - 0.7) < 1e-12

    def test_two_equal_bins_power_weighted_mean(self):
        h, dt = 40, 0.02
        t = np.arange(h)
        z = (np.sin(2 * np.pi * 2 * t / h) + np.sin(2 * np.pi * 4 * t / h))[None, None, :]
        f, _, _, _ = self.params_of(z, h, dt)
        assert abs(f[0, 0] - 3.0 / (h * dt)) < 1e-9

    def test_frequency_within_nyquist(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(3, 2, 17))
        model = tiny_model(window=17)
        f, a, _, _ = model.spectrum_params(z)
        assert np.all(f >= 0.0) and np.all(f <= model.config.nyquist)
        assert np.all(a >= 0.0)


class TestReconstructLatent:
    def test_zero_amplitude_gives_offset(self):
        model = tiny_model()
        zhat, _ = model.reconstruct_latent(np.zeros((1, 2)), np.ones((1, 2)),
                                           np.zeros((1, 2)), np.full((1, 2), 0.3), [0])
        assert np.allclose(zhat, 0.3)

    def test_full_cycle_phase_shift_is_identity(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        phi = rng.uniform(-0.5, 0.5, (1, 2))
        f = rng.uniform(0.5, 3.0, (1, 2))
        a = rng.uniform(0.5, 2.0, (1, 2))
        b = rng.normal(size=(1, 2))
        z1, _ = model.reconstruct_latent(phi, f, a, b, [0])
        z2, _ = model.reconstruct_latent(phi + 1.0, f, a, b, [0])
        assert np.max(np.abs(z1 - z2)) < 1e-9

    def test_phase_step_equals_grid_shift(self):
        # advancing phase by f*dt == evaluating one step ahead on the grid
        model = tiny_model()
        rng = np.random.default_rng(2)
        phi = rng.uniform(-0.5, 0.5, (1, 2))
        f = rng.uniform(0.5, 3.0, (1, 2))
        a = rng.uniform(0.5, 2.0, (1, 2))
        b = rng.normal(size=(1, 2))
        stepped, _ = model.reconstruct_latent(phi, f, a, b, np.array([1]))
        advanced, _ = model.reconstruct_latent(phi + f * model.config.dt, f, a, b, [0])
        assert np.max(np.abs(stepped - advanced)) < 1e-12

    def test_round_trip_with_analytic_phase_oracle(self):
        h, dt = 50, 0.02
        cfg = FLDConfig(dims=2, channels=1, window=h, dt=dt)
        model = FLDModel(cfg, np.random.default_rng(0))
        k = 3
        f_true = k / (h * dt)
        phi_true, a_true, b_true = 0.17, 1.4, -0.6
        zhat, _ = model.reconstruct_latent(np.array([[phi_true]]), np.array([[f_true]]),
                                           np.array([[a_true]]), np.array([[b_true]]), [0])
        curve = zhat[:, 0]  # (1, c, H)
        f, a, b, _ = model.spectrum_params(curve)
        assert abs(f[0, 0] - f_true) < 1e-9
        assert abs(a[0, 0] - a_true) < 1e-9
        assert abs(b[0, 0] - b_true) < 1e-9
        phi_rec = dft_phase_oracle(curve[0, 0], k, h, dt, f_true)
        assert abs(wrap_phase(phi_rec - phi_true)) < 1e-6


class TestEncodeDecode:
    def test_shape_error(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.encode(np.zeros((2, 3, 16)))
        with pytest.raises(ValueError):
            model.encode(np.zeros((2, 4, 9)))
        with pytest.raises(ValueError, match="expected segments"):
            model.analyze(np.zeros((4, 16)))  # one segment is a batch of one

    def test_deterministic_construction_and_forward(self):
        x = np.random.default_rng(5).normal(size=(2, 4, 16))
        z1, _ = tiny_model(seed=9).encode(x, "eval")
        z2, _ = tiny_model(seed=9).encode(x, "eval")
        assert np.array_equal(z1, z2)

    def test_eval_batch_consistency(self):
        model = tiny_model()
        x = np.random.default_rng(3).normal(size=(4, 16))
        seg = np.broadcast_to(x, (5, 4, 16))
        z, _ = model.encode(seg, "eval")
        assert np.max(np.abs(z - z[0])) < 1e-12
        s, _ = model.decode(np.random.default_rng(0).normal(size=(1, 2, 16)), "eval")
        assert s.shape == (1, 4, 16)


@pytest.mark.parametrize("bias", [False, True])
def test_fold_batch_norm_matches_the_eval_block(bias):
    rng = np.random.default_rng(10)
    conv = Conv1d(3, 4, 5, rng, "c", bias=bias)
    bn = BatchNorm1d(4, "bn")
    bn.forward(rng.normal(loc=0.7, scale=2.0, size=(9, 4, 6)), "train")
    bn.gamma.value[...] = rng.uniform(0.5, 2.0, 4)
    bn.beta.value[...] = rng.normal(size=4)
    x = rng.normal(size=(9, 3, 2))  # time-major (L, C, B)
    want, _ = blocks_forward([(conv, bn, True)], x, elu)
    folded = fold_batch_norm((conv, bn, True))
    assert folded[0] is conv and folded[1:] == (None, True) and conv.bias.name == "c.bias"
    got, _ = blocks_forward([folded], x, elu)
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


def consumption_order(blocks, caches):
    """Weakrefs to the arrays each stage's backward consumes, in the order
    :func:`blocks_backward` runs the stages (a function, so that no loop
    variable of the caller keeps a cache alive)."""
    refs = []
    for (_, bn, activated), (c_layer, c_post) in zip(reversed(blocks), reversed(caches)):
        if bn is not None:
            refs.append(weakref.ref(c_post["x_hat"]))  # batch norm applies ELU itself
        elif activated:
            refs.append(weakref.ref(c_post["y"]))
        refs.append(weakref.ref(c_layer["x_spec"]))
    return refs


@pytest.mark.parametrize("final_activation", [False, True])
def test_decode_backward_frees_each_cache_once_consumed(final_activation, monkeypatch):
    model = tiny_model(final_activation=final_activation)
    rng = np.random.default_rng(11)
    shat, (_, caches) = model.render(*rng.normal(size=(4, 3, 2)), [0, 1], mode="train")
    g = np.ones((shat.shape[0] * shat.shape[1],) + shat.shape[2:])
    consumed = consumption_order(model.decoder, caches)
    live_at_stage = []

    def spy(stage):
        def run(grad, cache):
            live_at_stage.append(sum(r() is not None for r in consumed[:len(live_at_stage)]))
            return stage(grad, cache)
        return run

    for layer, bn, _ in model.decoder:
        layer.backward = spy(layer.backward)
        if bn is not None:
            bn.backward = spy(bn.backward)
    # a separate ELU backward would be one stage more than ``consumed`` counts
    monkeypatch.setattr("fld.model.elu_backward", spy(elu_backward))
    model.decode_backward(g, caches)
    # each stage ran after every earlier stage's cache was freed
    assert live_at_stage == [0] * len(consumed)
    assert caches == [] and all(r() is None for r in consumed)


def test_fused_block_gradients_match_finite_differences():
    # a (conv, batch norm, activated) block: batch norm applies ELU and its
    # derivative itself, here over slabs of 2 rows of a 7-row input
    rng = np.random.default_rng(14)
    conv, bn = Conv1d(2, 3, 3, rng, "c", bias=False), BatchNorm1d(3, "bn")
    bn.gamma.value[:], bn.beta.value[:] = [1.4, 0.6, 0.9], [0.3, -0.5, 0.1]
    block = [(conv, bn, True)]
    x, weights = rng.normal(size=(7, 2, 3)), rng.normal(size=(7, 3, 3))

    def run(inputs):
        out, caches = blocks_forward(block, inputs, elu, "train")
        return float(np.sum(out * weights)), blocks_backward(block, weights, caches, elu_backward)

    with mock.patch.object(layers, "BN_SLAB_VALUES", 2 * 3 * 3):
        assert gradient_check(lambda: run(x)[0], conv.parameters() + bn.parameters()) < 1e-6
        dx, h = run(x)[1].reshape(-1), 1e-6
        for i, step in enumerate(np.eye(x.size) * h):
            step = step.reshape(x.shape)
            numeric = (run(x + step)[0] - run(x - step)[0]) / (2 * h)
            assert abs(dx[i] - numeric) < 1e-6 * max(1.0, abs(numeric))


def cache_nbytes(obj, seen=None):
    """Bytes of the distinct arrays a nested cache refers to."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(cache_nbytes(v, seen) for v in obj)
    return 0


@pytest.mark.parametrize("final_activation", [False, True])
def test_train_render_caches_x_hat_and_spectra_but_no_activation(final_activation):
    model = tiny_model(final_activation=final_activation)
    cfg, batch, steps = model.config, 3, 4
    params = np.random.default_rng(15).normal(size=(4, batch, cfg.channels))
    _, cache = model.render(*params, np.arange(steps), mode="train")
    segments, h, f8 = batch * steps, cfg.window, 8
    bins = (h + (cfg.kernel - 1) // 2) // 2 + 1
    # reconstruction: sin and angle (H, c, B, N+1), amp (c, B), times (N+1, H)
    want = (2 * h * cfg.channels * segments + cfg.channels * batch + steps * h) * f8
    for conv, bn, _ in model.decoder:
        i, o = conv.in_channels, conv.out_channels
        want += (bins * 2 * i * segments + bins * 2 * i * 2 * o) * f8  # spectrum, kernel blocks
        if bn is not None:
            want += (h * o * segments + o) * f8  # x_hat and std; no ELU output
    assert cache_nbytes(cache) == want


def test_blocks_backward_rejects_a_short_or_consumed_cache_list():
    model = tiny_model()
    z = np.random.default_rng(12).normal(size=(3, 2, 16))
    out, caches = model.decode(z, "train")
    with pytest.raises(ValueError, match="2 caches for 3 blocks"):
        model.decode_backward(np.ones_like(out), caches[:2])
    model.decode_backward(np.ones_like(out), caches)
    with pytest.raises(ValueError, match="0 caches for 3 blocks"):
        model.decode_backward(np.ones_like(out), caches)


def test_propagation_loss_with_grads_consumes_the_analysis_caches():
    model = tiny_model()
    items = np.random.default_rng(13).normal(size=(3, 4, 4, 16))
    analysis = model.analyze(items[:, 0], "train")
    enc_caches = analysis[4][0]
    model.propagation_loss(analysis, items, want_grads=True)
    assert enc_caches == []


def test_propagation_loss_renders_in_the_analysis_mode():
    model = tiny_model()
    items = np.random.default_rng(15).normal(size=(3, 4, 4, 16))

    def decoder_stats():
        return [a.copy() for _, bn, _ in model.decoder if bn is not None
                for a in bn.state_arrays().values()]

    # a train-mode analysis renders the decoder in train mode, even without
    # gradients: its batch norms move their running statistics
    before = decoder_stats()
    model.propagation_loss(model.analyze(items[:, 0], "train"), items)
    assert not any(np.array_equal(a, b) for a, b in zip(before, decoder_stats()))
    assert not any(p.grad.any() for p in model.parameters())
    # an eval-mode analysis renders in eval mode and leaves them bitwise alone
    before = decoder_stats()
    model.propagation_loss(model.analyze(items[:, 0], "eval"), items)
    assert all(np.array_equal(a, b) for a, b in zip(before, decoder_stats()))
    # and its gradients are refused before any accumulates or any statistic moves
    with pytest.raises(ValueError, match="forward-only"):
        model.propagation_loss(model.analyze(items[:, 0], "eval"), items, want_grads=True)
    assert all(np.array_equal(a, b) for a, b in zip(before, decoder_stats()))
    assert not any(p.grad.any() for p in model.parameters())


@pytest.mark.parametrize("frozen", [False, True], ids=["unfrozen", "frozen"])
@pytest.mark.parametrize("entry", ["propagation_loss", "loss_and_grads"])
def test_eval_gradients_are_refused_before_any_accumulates(frozen, entry):
    model = tiny_model()
    if frozen:
        model.freeze()
    items = np.random.default_rng(14).normal(size=(3, 4, 4, 16))
    with pytest.raises(ValueError, match="forward-only"):
        if entry == "propagation_loss":
            model.propagation_loss(model.analyze(items[:, 0]), items, want_grads=True)
        else:
            model.loss_and_grads(items, mode="eval")
    assert not any(p.grad.any() for p in model.parameters())


class TestPredict:
    def test_zero_step_equals_reconstruction_path(self):
        model = tiny_model()
        x = np.random.default_rng(7).normal(size=(3, 4, 16))
        pred = model.predict(x, [0])
        z, _ = model.encode(x, "eval")
        phi, f, a, b, _ = model.parameterize(z, "eval")
        zhat, _ = model.reconstruct_latent(phi, f, a, b, np.array([0]))
        manual, _ = model.decode(zhat.reshape(3, 2, 16), "eval")
        assert np.array_equal(pred[:, 0], manual)

    def test_one_step_equals_manual_phase_advance(self):
        model = tiny_model()
        x = np.random.default_rng(8).normal(size=(2, 4, 16))
        pred = model.predict(x, [1])
        z, _ = model.encode(x, "eval")
        phi, f, a, b, _ = model.parameterize(z, "eval")
        zhat, _ = model.reconstruct_latent(phi + f * model.config.dt, f, a, b, np.array([0]))
        manual, _ = model.decode(zhat.reshape(2, 2, 16), "eval")
        assert np.array_equal(pred[:, 0], manual)

    def test_zero_frequency_freezes_dynamics(self):
        model = tiny_model()
        rng = np.random.default_rng(4)
        phi = rng.uniform(-0.5, 0.5, (1, 2))
        a = rng.uniform(0.5, 1.0, (1, 2))
        b = rng.normal(size=(1, 2))
        zhat, _ = model.reconstruct_latent(phi, np.zeros((1, 2)), a, b, np.arange(5))
        for i in range(1, 5):
            assert np.array_equal(zhat[0, i], zhat[0, 0])
        # decoded one step at a time, at batch 1, the steps are equal bit
        # for bit; a batch of steps agrees to rounding only (see
        # test_batched_calls_match_per_segment_calls)
        first, _ = model.decode(zhat[0, :1], "eval")
        for i in range(1, 5):
            out, _ = model.decode(zhat[0, i:i + 1], "eval")
            assert np.array_equal(out, first)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            tiny_model().predict(np.zeros((1, 4, 16)), [-1])


@pytest.mark.parametrize("mode", ["eval", "frozen"])
def test_batched_calls_match_per_segment_calls(mode):
    # the batch axis is the networks' contiguous inner axis, where BLAS
    # may treat a segment's column with a different kernel than at batch 1
    model = tiny_model()
    if mode == "frozen":
        model.freeze()
    rng = np.random.default_rng(21)
    segments = rng.normal(size=(7, 4, 16))
    latent = rng.normal(size=(7, 2, 16))
    for net, batch in ((model.encode, segments), (model.decode, latent)):
        batched, _ = net(batch, "eval")
        single = np.concatenate([net(batch[i:i + 1], "eval")[0] for i in range(len(batch))])
        assert np.max(np.abs(batched - single)) <= 1e-14 * np.max(np.abs(single))


class TestLoss:
    def make_items(self, model, batch=3, seed=0):
        n = model.config.horizon
        rng = np.random.default_rng(seed)
        return rng.normal(size=(batch, n + 1, model.config.dims, model.config.window))

    def test_weighted_sum_arithmetic(self):
        # alpha weighting: fabricated per-horizon losses via alpha=0.5
        model = tiny_model()
        items = self.make_items(model)
        total, per = model.loss_and_grads(items, want_grads=False, alpha=0.5)
        weights = 0.5 ** np.arange(per.size)
        assert abs(total - float(weights @ per)) < 1e-12

    def test_zero_horizon_is_reconstruction_loss(self):
        model = tiny_model()
        items = self.make_items(model)
        total, per = model.loss_and_grads(items[:, :1], want_grads=False)
        # value matches a hand MSE in train mode
        assert per.size == 1
        model2 = tiny_model()
        z, _ = model2.encode(items[:, 0], "train")
        phi, f, a, b, _ = model2.parameterize(z, "train")
        zhat, _ = model2.reconstruct_latent(phi, f, a, b, np.array([0]))
        shat, _ = model2.decode(zhat.reshape(items.shape[0], 2, 16), "train")
        manual = float(np.mean((shat - items[:, 0]) ** 2))
        assert abs(total - manual) < 1e-12

    def test_perfect_prediction_gives_zero(self):
        model = tiny_model()
        items = self.make_items(model, batch=2)
        pred = model.predict(items[:, 0], np.arange(model.config.horizon + 1))
        # feed the model's own eval-mode outputs back as targets
        total, per = model.loss_and_grads(pred, mode="eval", want_grads=False,
                                          anchor=items[:, 0])
        assert total < 1e-20
        assert np.all(per < 1e-20)

    def test_loss_monotone_in_alpha(self):
        model = tiny_model()
        items = self.make_items(model)
        totals = [model.loss_and_grads(items, want_grads=False, alpha=al)[0]
                  for al in [0.2, 0.5, 0.8, 1.0]]
        assert all(t2 >= t1 for t1, t2 in zip(totals, totals[1:]))

    def test_horizon_exceeding_futures_rejected(self):
        model = tiny_model()
        items = self.make_items(model)
        with pytest.raises(ValueError):
            model.loss_and_grads(items, horizon=model.config.horizon + 1)

    def gradient_error(self, **overrides):
        model = tiny_model(seed=1, hidden=8, **overrides)
        items = self.make_items(model, batch=3, seed=2)

        def loss():
            total, _ = model.loss_and_grads(items, mode="train")
            return total

        return gradient_check(loss, model.parameters(), h=1e-6, sample=4,
                              rng=np.random.default_rng(0))

    def test_full_gradient_check_tiny_config(self):
        assert self.gradient_error() < 1e-5

    def test_full_gradient_check_with_final_activation(self):
        # the decoder's output block is conv -> batch norm -> ELU here
        assert self.gradient_error(final_activation=True) < 1e-5


class TestVAE:
    def make(self, beta=1e-3, seed=0):
        cfg = VAEConfig(dims=3, window=8, latent=2, hidden=(16, 8), beta=beta)
        return VAEBaseline(cfg, np.random.default_rng(seed))

    def test_beta_zero_is_plain_mse(self):
        vae = self.make(beta=0.0)
        x = np.random.default_rng(1).normal(size=(4, 3, 8))
        recon, _, _, _ = vae.forward(x, rng=np.random.default_rng(5))
        total, extras = vae.train_loss(x[:, None], np.random.default_rng(5))
        assert abs(total - extras["mse"]) < 1e-15
        assert abs(extras["mse"] - np.mean((recon - x) ** 2)) < 1e-12

    @pytest.mark.parametrize("mean", [0.0, 1.0])
    def test_kl_of_a_unit_posterior(self, mean):
        # heads fixed at mean m and std 1 for every input: KL = 0.5 * m^2 * latent
        vae = self.make(beta=0.5)
        latent = vae.config.latent
        vae.mean_head.weight.value[...] = 0.0
        vae.mean_head.bias.value[...] = mean
        vae.std_head.weight.value[...] = 0.0
        vae.std_head.bias.value[...] = np.log(np.expm1(1.0))  # softplus^-1(1)
        x = np.random.default_rng(2).normal(size=(3, 3, 8))
        _, _, std, _ = vae.forward(x, np.random.default_rng(3))
        assert np.max(np.abs(std - 1.0)) < 1e-15
        total, extras = vae.train_loss(x[:, None], np.random.default_rng(4))
        assert abs(extras["kl"] - 0.5 * mean ** 2 * latent) < 1e-15
        assert total == extras["mse"] + 0.5 * extras["kl"]

    def test_gradients_match_finite_differences(self):
        vae = self.make(beta=0.02, seed=3)
        x = np.random.default_rng(4).normal(size=(3, 3, 8))
        fixed_noise_rng = lambda: np.random.default_rng(9)

        def loss():
            total, _ = vae.train_loss(x[:, None], fixed_noise_rng())
            return total

        err = gradient_check(loss, vae.parameters(), sample=5,
                             rng=np.random.default_rng(0))
        assert err < 1e-5


class TestFF:
    def make(self, seed=0):
        return FFBaseline(FFConfig(dims=3, window=8, hidden=(32, 32)),
                          np.random.default_rng(seed))

    def test_zero_weights_zero_prediction(self):
        ff = self.make()
        for p in ff.parameters():
            p.value[:] = 0.0
        out, _ = ff.forward(np.random.default_rng(0).normal(size=(2, 3, 8)))
        assert np.all(out == 0.0)

    def test_composition_is_repeated_forward(self):
        ff = self.make(seed=2)
        x = np.random.default_rng(1).normal(size=(2, 3, 8))
        manual = [x]
        for _ in range(3):
            manual.append(ff.forward(manual[-1])[0])
        expected = np.stack([manual[3], manual[0], manual[1]], axis=1)
        assert np.array_equal(ff.predict(x, [3, 0, 1]), expected)

    def test_identity_overfit_smoke(self):
        ff = self.make(seed=3)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(16, 3, 8))
        items = np.stack([x, x], axis=1)
        opt = Adam(ff.parameters(), lr=3e-3)
        for _ in range(400):
            opt.zero_grad()
            ff.train_loss(items, rng)
            opt.step()
        assert ff.train_loss(items, rng)[0] < 1e-3

    def test_gradients_match_finite_differences(self):
        ff = self.make(seed=4)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 3, 8))
        y = rng.normal(size=(3, 3, 8))

        def loss():
            return ff.train_loss(np.stack([x, y], axis=1), rng)[0]

        err = gradient_check(loss, ff.parameters(), sample=6,
                             rng=np.random.default_rng(0))
        assert err < 1e-5


# Coefficients each representation needs for one trajectory of n frames,
# at d dims, c latent channels and window h: a VAE code per window, PAE's
# (phi, f, a, b) per window, FLD's one (phi, f, a, b) for the whole
# trajectory.
PARAM_COUNTS = {
    "original": lambda d, c, h, n: d * n,
    "vae": lambda d, c, h, n: c * (n - h + 1),
    "pae": lambda d, c, h, n: 4 * c * (n - h + 1),
    "fld": lambda d, c, h, n: 4 * c,
}


def representation_param_count(kind, d, c, h, traj_len):
    if traj_len < h:
        raise ValueError(f"trajectory length {traj_len} is shorter than the window {h}")
    if kind not in PARAM_COUNTS:
        raise ValueError(f"unknown model kind {kind!r}")
    return PARAM_COUNTS[kind](d, c, h, traj_len)


class TestParamCount:
    def test_table_values(self):
        assert representation_param_count("fld", d=27, c=8, h=51, traj_len=100) == 32
        assert representation_param_count("original", d=27, c=8, h=51, traj_len=100) == 2700
        assert representation_param_count("pae", d=27, c=8, h=51, traj_len=51) == 32
        assert representation_param_count("vae", d=27, c=8, h=51, traj_len=100) == 8 * 50

    def test_too_short_trajectory(self):
        with pytest.raises(ValueError):
            representation_param_count("fld", d=27, c=8, h=51, traj_len=50)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            representation_param_count("gru", d=1, c=1, h=2, traj_len=2)


def test_wrap_phase_range():
    phis = np.array([-0.5, -0.50001, 0.5, 0.49999, 1.6, -2.3])
    wrapped = wrap_phase(phis)
    assert np.all(wrapped >= -0.5) and np.all(wrapped < 0.5)
    assert wrapped[0] == -0.5
    assert abs(wrapped[4] - (-0.4)) < 1e-12


BAD_SIZES = [
    (FLDConfig, "window", float("nan")),
    (FLDConfig, "horizon", float("nan")),
    (FLDConfig, "window", 16.5),
    (FLDConfig, "window", 17.0),
    (FLDConfig, "window", 1),
    (FLDConfig, "horizon", -1),
    (FLDConfig, "dims", True),
    (FLDConfig, "channels", 2.0),
    (VAEConfig, "latent", np.float64(2.0)),
    (VAEConfig, "hidden", (4, 2.5)),
    (FFConfig, "window", 1),
    (FFConfig, "hidden", (float("nan"),)),
]


@pytest.mark.parametrize("config_cls, name, value", BAD_SIZES)
def test_config_sizes_are_integers_at_their_floor(config_cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        config_cls(**{name: value})


def test_numpy_integer_sizes_are_stored_as_int():
    cfg = FLDConfig(dims=np.int64(3), window=np.int32(9), horizon=np.int64(0), hidden=8)
    assert all(type(getattr(cfg, n)) is int for n in ("dims", "window", "horizon", "hidden"))
    ff = FFConfig(dims=3, window=9, hidden=[np.int64(4), 5])
    assert ff.hidden == (4, 5) and all(type(w) is int for w in ff.hidden)
