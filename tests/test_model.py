import numpy as np
import pytest

from fld.model import (
    FFBaseline,
    FFConfig,
    FLDConfig,
    FLDModel,
    VAEBaseline,
    VAEConfig,
    representation_param_count,
    wrap_phase,
)
from fld.numerics import Adam
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
                                           np.zeros((1, 2)), np.full((1, 2), 0.3))
        assert np.allclose(zhat, 0.3)

    def test_full_cycle_phase_shift_is_identity(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        phi = rng.uniform(-0.5, 0.5, (1, 2))
        f = rng.uniform(0.5, 3.0, (1, 2))
        a = rng.uniform(0.5, 2.0, (1, 2))
        b = rng.normal(size=(1, 2))
        z1, _ = model.reconstruct_latent(phi, f, a, b)
        z2, _ = model.reconstruct_latent(phi + 1.0, f, a, b)
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
        advanced, _ = model.reconstruct_latent(phi + f * model.config.dt, f, a, b)
        assert np.max(np.abs(stepped - advanced)) < 1e-12

    def test_round_trip_with_analytic_phase_oracle(self):
        h, dt = 50, 0.02
        cfg = FLDConfig(dims=2, channels=1, window=h, dt=dt)
        model = FLDModel(cfg, np.random.default_rng(0))
        k = 3
        f_true = k / (h * dt)
        phi_true, a_true, b_true = 0.17, 1.4, -0.6
        zhat, _ = model.reconstruct_latent(np.array([[phi_true]]), np.array([[f_true]]),
                                           np.array([[a_true]]), np.array([[b_true]]))
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
        out, _ = model.decode(zhat.reshape(5, 2, 16), "eval")
        for i in range(1, 5):
            assert np.array_equal(out[i], out[0])

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            tiny_model().predict(np.zeros((1, 4, 16)), [-1])


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
        pred = model.predict(items[:, 0], [0])
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
        recon, _, _, _ = vae.forward(x, rng=None)
        total, mse, _ = vae.loss_and_grads(x, rng=None, want_grads=False)
        assert abs(total - mse) < 1e-15
        assert abs(mse - np.mean((recon - x) ** 2)) < 1e-12

    def test_kl_closed_forms(self):
        # standard normal posterior: KL = 0; (mu=1, sigma=1): KL = 0.5
        mean = np.array([[0.0]])
        std = np.array([[1.0]])
        kl = np.sum(0.5 * (mean**2 + std**2 - 1.0) - np.log(std))
        assert kl == 0.0
        kl2 = np.sum(0.5 * (1.0 + 1.0 - 1.0) - 0.0)
        assert abs(kl2 - 0.5) < 1e-15

    def test_eval_uses_mean_and_is_deterministic(self):
        vae = self.make()
        x = np.random.default_rng(2).normal(size=(2, 3, 8))
        r1, m1, s1, _ = vae.forward(x, rng=None)
        r2, _, _, _ = vae.forward(x, rng=None)
        assert np.array_equal(r1, r2)
        assert np.all(s1 > 0.0)  # softplus head

    def test_gradients_match_finite_differences(self):
        vae = self.make(beta=0.02, seed=3)
        x = np.random.default_rng(4).normal(size=(3, 3, 8))
        fixed_noise_rng = lambda: np.random.default_rng(9)

        def loss():
            total, _, _ = vae.loss_and_grads(x, rng=fixed_noise_rng())
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
        opt = Adam(ff.parameters(), lr=3e-3)
        for _ in range(400):
            opt.zero_grad()
            ff.loss_and_grads(x, x)
            opt.step()
        assert ff.loss_and_grads(x, x, want_grads=False) < 1e-3

    def test_gradients_match_finite_differences(self):
        ff = self.make(seed=4)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 3, 8))
        y = rng.normal(size=(3, 3, 8))

        def loss():
            return ff.loss_and_grads(x, y)

        err = gradient_check(loss, ff.parameters(), sample=6,
                             rng=np.random.default_rng(0))
        assert err < 1e-5


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
