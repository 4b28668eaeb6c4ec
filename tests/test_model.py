import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fld.model import (
    FFBaseline,
    FFConfig,
    FLDConfig,
    FLDModel,
    blocks_backward,
    blocks_forward,
    fold_batch_norm,
    wrap_phase,
)
from fld.numerics import Adam, BatchNorm1d, Conv1d, PerChannelLinear, elu, elu_backward, layers
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
        z1, _ = tiny_model(seed=9).freeze().encode(x)
        z2, _ = tiny_model(seed=9).freeze().encode(x)
        assert np.array_equal(z1, z2)

    def test_eval_batch_consistency(self):
        model = tiny_model().freeze()
        x = np.random.default_rng(3).normal(size=(4, 16))
        seg = np.broadcast_to(x, (5, 4, 16))
        z, _ = model.encode(seg)
        assert np.max(np.abs(z - z[0])) < 1e-12
        s, _ = model.decode(np.random.default_rng(0).normal(size=(1, 2, 16)))
        assert s.shape == (1, 4, 16)


@pytest.mark.parametrize("layer", ["conv", "biased-conv", "phase-head"])
def test_fold_batch_norm_matches_the_eval_block(layer):
    rng = np.random.default_rng(10)
    if layer == "phase-head":  # 2 channels to 2 features each, not activated
        first, activated = PerChannelLinear(2, 9, 2, rng, "c"), False
    else:
        first, activated = Conv1d(3, 4, 5, rng, "c", bias=layer == "biased-conv"), True
    bn = BatchNorm1d(4, "bn")
    bn.forward(rng.normal(loc=0.7, scale=2.0, size=(9, 4, 6)))
    bn.gamma.value[...] = rng.uniform(0.5, 2.0, 4)
    bn.beta.value[...] = rng.normal(size=4)
    x = rng.normal(size=(9, 2 if layer == "phase-head" else 3, 2))  # time-major (L, C, B)
    # the eval block: the layer, then the running statistics' scale and shift
    scale, shift = bn.eval_affine()
    want = first.forward(x)[0] * scale[:, None] + shift[:, None]
    want = elu(want)[0] if activated else want
    folded = fold_batch_norm((first, bn, activated))
    assert folded[0] is first and folded[1:] == (None, activated) and first.bias.name == "c.bias"
    got, _ = blocks_forward([folded], x)
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["fld", "fld-final-activation", "ff"])
def test_frozen_model_holds_no_batch_norm_and_no_backward_accumulates(kind):
    rng = np.random.default_rng(16)
    if kind == "ff":
        model = FFBaseline(FFConfig(dims=4, window=16, hidden=(8,)), rng)
        items = rng.normal(size=(3, 2, 4, 16))
    else:
        model = tiny_model(final_activation=kind == "fld-final-activation")
        items = rng.normal(size=(3, 4, 4, 16))
    model.freeze()
    assert not any(isinstance(part, BatchNorm1d) for block in model._blocks() for part in block)
    # a train-mode forward runs, as no batch norm is left; its backward does not
    with pytest.raises(ValueError, match="read-only"):
        model.train_loss(items)
    assert not any(p.grad.any() for p in model.parameters())


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
    shat, (_, caches) = model.render(*rng.normal(size=(4, 3, 2)), [0, 1])
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
        out, caches = blocks_forward(block, inputs)
        return float(np.sum(out * weights)), blocks_backward(block, weights, caches)

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
    _, cache = model.render(*params, np.arange(steps))
    segments, h, f8 = batch * steps, cfg.window, 8
    bins = (h + (cfg.kernel - 1) // 2) // 2 + 1
    # reconstruction: sin and angle (H, c, B, N+1), amp (c, B), times (N+1, H)
    want = (2 * h * cfg.channels * segments + cfg.channels * batch + steps * h) * f8
    for conv, bn, _ in model.decoder:
        i, o = conv.in_channels, conv.out_channels
        want += bins * 2 * i * segments * f8  # spectrum; the kernel blocks are rebuilt
        if bn is not None:
            want += (h * o * segments + o) * f8  # x_hat and std; no ELU output
    assert cache_nbytes(cache) == want


def test_blocks_backward_rejects_a_short_or_consumed_cache_list():
    model = tiny_model()
    z = np.random.default_rng(12).normal(size=(3, 2, 16))
    out, caches = model.decode(z)
    with pytest.raises(ValueError, match="2 caches for 3 blocks"):
        model.decode_backward(np.ones_like(out), caches[:2])
    model.decode_backward(np.ones_like(out), caches)
    with pytest.raises(ValueError, match="0 caches for 3 blocks"):
        model.decode_backward(np.ones_like(out), caches)


def test_propagation_loss_with_grads_consumes_the_analysis_caches():
    model = tiny_model()
    items = np.random.default_rng(13).normal(size=(3, 4, 4, 16))
    analysis = model.analyze(items[:, 0])
    enc_caches = analysis[4][0]
    model.propagation_loss(analysis, items, want_grads=True)
    assert enc_caches == []


def test_propagation_loss_renders_in_the_analysis_mode():
    model = tiny_model()
    items = np.random.default_rng(15).normal(size=(3, 4, 4, 16))

    def decoder_stats():
        return [a.copy() for _, bn, _ in model.decoder if bn is not None
                for a in bn.state_arrays().values()]

    # an unfrozen model renders the decoder as it trains, even without
    # gradients: its batch norms move their running statistics
    before = decoder_stats()
    model.propagation_loss(model.analyze(items[:, 0]), items)
    assert not any(np.array_equal(a, b) for a, b in zip(before, decoder_stats()))
    assert not any(p.grad.any() for p in model.parameters())
    # an eval-mode loss scores a frozen copy and leaves them bitwise alone
    before = decoder_stats()
    model.loss_and_grads(items, mode="eval", want_grads=False)
    assert all(np.array_equal(a, b) for a, b in zip(before, decoder_stats()))
    # and gradients of a cacheless analysis are refused before any
    # accumulates or any statistic moves
    analysis = model.analyze(items[:, 0])[:4]
    before = decoder_stats()
    with pytest.raises(ValueError, match="forward-only"):
        model.propagation_loss(analysis, items, want_grads=True)
    assert all(np.array_equal(a, b) for a, b in zip(before, decoder_stats()))
    assert not any(p.grad.any() for p in model.parameters())


@pytest.mark.parametrize("frozen", [False, True], ids=["unfrozen", "frozen"])
@pytest.mark.parametrize("entry", ["propagation_loss", "loss_and_grads"])
def test_eval_gradients_are_refused_before_any_accumulates(frozen, entry):
    # a frozen model's gradients are read-only; an unfrozen model refuses a
    # cacheless analysis, and its eval-mode loss runs (and refuses) a frozen copy
    model = tiny_model()
    if frozen:
        model.freeze()
    items = np.random.default_rng(14).normal(size=(3, 4, 4, 16))
    cacheless = entry == "propagation_loss" and not frozen
    with pytest.raises(ValueError, match="forward-only" if cacheless else "read-only"):
        if entry == "propagation_loss":
            analysis = model.analyze(items[:, 0])
            model.propagation_loss(analysis[:4] if cacheless else analysis, items,
                                   want_grads=True)
        else:
            model.loss_and_grads(items, mode="eval")
    assert not any(p.grad.any() for p in model.parameters())


def test_unfrozen_analyze_moves_running_statistics_and_frozen_holds_none():
    model = tiny_model()
    segments = np.random.default_rng(17).normal(size=(3, 4, 16))
    before = {k: v.copy() for k, v in model.state_arrays().items()}
    model.analyze(segments)
    moved = [k for k, v in model.state_arrays().items() if not np.array_equal(v, before[k])]
    # the encoder's and the phase head's; the decoder does not run
    assert moved == [k for k in before if k.endswith((".running_mean", ".running_var"))
                     and not k.startswith("dec.")]
    assert "phase.bn.running_var" in moved
    model.freeze()
    assert not any("running" in k for k in model.state_arrays())
    frozen = {k: v.copy() for k, v in model.state_arrays().items()}
    model.analyze(segments[:1])  # a batch of one needs no batch statistics
    assert all(np.array_equal(v, frozen[k]) for k, v in model.state_arrays().items())


def test_predict_on_an_unfrozen_model_raises():
    model, x = tiny_model(), np.random.default_rng(18).normal(size=(1, 4, 16))
    with pytest.raises(ValueError, match=r"frozen model; call freeze\(\) first"):
        model.predict(x, [0])
    assert model.freeze().predict(x, [0]).shape == (1, 1, 4, 16)


class TestPredict:
    def test_zero_step_equals_reconstruction_path(self):
        model = tiny_model().freeze()
        x = np.random.default_rng(7).normal(size=(3, 4, 16))
        pred = model.predict(x, [0])
        z, _ = model.encode(x)
        phi, f, a, b, _ = model.parameterize(z)
        zhat, _ = model.reconstruct_latent(phi, f, a, b, np.array([0]))
        manual, _ = model.decode(zhat.reshape(3, 2, 16))
        assert np.array_equal(pred[:, 0], manual)

    def test_one_step_equals_manual_phase_advance(self):
        model = tiny_model().freeze()
        x = np.random.default_rng(8).normal(size=(2, 4, 16))
        pred = model.predict(x, [1])
        z, _ = model.encode(x)
        phi, f, a, b, _ = model.parameterize(z)
        zhat, _ = model.reconstruct_latent(phi + f * model.config.dt, f, a, b, np.array([0]))
        manual, _ = model.decode(zhat.reshape(2, 2, 16))
        assert np.array_equal(pred[:, 0], manual)

    def test_zero_frequency_freezes_dynamics(self):
        model = tiny_model().freeze()
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
        first, _ = model.decode(zhat[0, :1])
        for i in range(1, 5):
            out, _ = model.decode(zhat[0, i:i + 1])
            assert np.array_equal(out, first)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            tiny_model().freeze().predict(np.zeros((1, 4, 16)), [-1])


def basis_model(seed, **overrides):
    """A frozen tiny model whose folded biases are not zero: a training
    forward first moves its running statistics off their defaults."""
    model = tiny_model(seed, dims=3, hidden=4, **overrides)
    cfg = model.config
    items = np.random.default_rng(seed).normal(
        loc=0.3, size=(3, cfg.horizon + 1, cfg.dims, cfg.window))
    model.loss_and_grads(items, want_grads=False)
    return model.freeze()


def latent_params(rng, model, batch):
    c = model.config.channels
    return (rng.uniform(-0.5, 0.5, (batch, c)), rng.uniform(0.0, model.config.nyquist, (batch, c)),
            rng.uniform(0.0, 2.0, (batch, c)), rng.normal(size=(batch, c)))


def block_walk(model, params, steps):
    """The reconstruct-then-decode render, as every render ran before the basis."""
    zhat, _ = model.reconstruct_latent(*params, steps)
    batch, n, c, h = zhat.shape
    return model.decode(zhat.reshape(batch * n, c, h))[0].reshape(batch, n, model.config.dims, h)


@settings(max_examples=40)
@given(channels=st.integers(1, 3), window=st.integers(9, 17), batch=st.integers(1, 3),
       final_activation=st.booleans(), seed=st.integers(0, 2**31), data=st.data())
def test_frozen_render_on_the_sinusoid_basis_matches_the_block_walk(
        channels, window, batch, final_activation, seed, data):
    k = 2 * channels + 1
    steps = data.draw(st.lists(st.integers(0, 3 * k), min_size=k + 1, max_size=3 * k))
    model = basis_model(seed, channels=channels, window=window,
                        final_activation=final_activation)
    params = latent_params(np.random.default_rng(seed), model, batch)
    got, (rec_cache, _) = model.render(*params, steps)
    want = block_walk(model, params, steps)
    assert rec_cache is None  # the basis path: no reconstruction ran
    assert got.shape == want.shape == (batch, len(steps), 3, window)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_render_takes_the_basis_above_2c_plus_1_steps_on_a_frozen_model_only():
    model = basis_model(3, channels=2)
    params = latent_params(np.random.default_rng(3), model, 2)
    # at 2c + 1 = 5 steps the render is the block walk, bit for bit
    shat, (rec_cache, _) = model.render(*params, np.arange(5))
    assert rec_cache is not None
    assert np.array_equal(shat, block_walk(model, params, np.arange(5)))
    # at 6 it takes the basis, and agrees to rounding
    shat, (rec_cache, dec_cache) = model.render(*params, np.arange(6))
    assert rec_cache is None and dec_cache[0] == (None, None)
    want = block_walk(model, params, np.arange(6))
    assert np.max(np.abs(shat - want)) <= 1e-12 * np.max(np.abs(want))
    # an unfrozen model always walks the blocks
    unfrozen = tiny_model(3, dims=3, hidden=4, channels=2)
    assert unfrozen.render(*params, np.arange(6))[1][0] is not None


def test_basis_render_refuses_gradients_before_any_accumulates():
    model = basis_model(4, channels=1, horizon=5)
    items = np.random.default_rng(4).normal(size=(2, 6, 3, 16))
    analysis = model.analyze(items[:, 0])
    with pytest.raises(ValueError, match="read-only"):
        model.propagation_loss(analysis, items, want_grads=True)
    assert not any(p.grad.any() for p in model.parameters())


# "eval": frozen after a training forward moved the running statistics off
# their defaults, as a trained checkpoint's are; "frozen": at its defaults
@pytest.mark.parametrize("mode", ["eval", "frozen"])
def test_batched_calls_match_per_segment_calls(mode):
    # the batch axis is the networks' contiguous inner axis, where BLAS
    # may treat a segment's column with a different kernel than at batch 1
    model = tiny_model()
    rng = np.random.default_rng(21)
    segments = rng.normal(size=(7, 4, 16))
    latent = rng.normal(size=(7, 2, 16))
    if mode == "eval":
        model.loss_and_grads(rng.normal(loc=0.5, size=(3, 4, 4, 16)), want_grads=False)
    model.freeze()
    for net, batch in ((model.encode, segments), (model.decode, latent)):
        batched, _ = net(batch)
        single = np.concatenate([net(batch[i:i + 1])[0] for i in range(len(batch))])
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
        # value matches a hand MSE of an unfrozen model, which trains
        assert per.size == 1
        model2 = tiny_model()
        z, _ = model2.encode(items[:, 0])
        phi, f, a, b, _ = model2.parameterize(z)
        zhat, _ = model2.reconstruct_latent(phi, f, a, b, np.array([0]))
        shat, _ = model2.decode(zhat.reshape(items.shape[0], 2, 16))
        manual = float(np.mean((shat - items[:, 0]) ** 2))
        assert abs(total - manual) < 1e-12

    def test_perfect_prediction_gives_zero(self):
        model = tiny_model().freeze()
        items = self.make_items(model, batch=2)
        pred = model.predict(items[:, 0], np.arange(model.config.horizon + 1))
        # feed the frozen model's own outputs back as targets
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
            ff.train_loss(items)
            opt.step()
        assert ff.train_loss(items)[0] < 1e-3

    def test_gradients_match_finite_differences(self):
        ff = self.make(seed=4)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 3, 8))
        y = rng.normal(size=(3, 3, 8))

        def loss():
            return ff.train_loss(np.stack([x, y], axis=1))[0]

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
    (FLDConfig, "hidden", np.float64(8.0)),
    (FFConfig, "hidden", (4, 2.5)),
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
