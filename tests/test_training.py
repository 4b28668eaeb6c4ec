import re

import numpy as np
import pytest

from fld.checkpoint import build_model
from fld.model import BlockModel, FFBaseline, FFConfig, FLDConfig, FLDModel
from fld.signals import (
    NormalizationStats,
    SyntheticMotionSpec,
    Trajectory,
    generate_synthetic,
    segment_view,
)
from fld.training import (
    TrainConfig,
    evaluate_prediction,
    export_latent_manifold,
    quasi_constancy_report,
    relative_error,
    train,
)
from unfolded import unfold_batch_norm

TINY = dict(dims=3, channels=2, window=16, horizon=3, dt=0.02, hidden=8)


def tiny_corpus(n_traj=2, frames=160, freq=1.5, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_traj):
        spec = SyntheticMotionSpec(
            base_frequency=freq + 0.4 * i,
            amplitudes=rng.uniform(0.5, 1.5, 3),
            phase_offsets=rng.uniform(0, 1, 3),
            means=rng.normal(scale=0.3, size=3),
            frames=frames, dt=0.02, seed=seed + i, label=f"family-{i}")
        out.append(generate_synthetic(spec))
    return out


def tiny_train_config(iters=20, **kw):
    base = dict(max_iterations=iters, lr=2e-3, weight_decay=1e-4,
                epochs=1, mini_batches=1, batch_size=8, seed=1)
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_smoke_loss_halves(self):
        corpus = tiny_corpus(1)
        result = train("fld", corpus, tiny_train_config(iters=200),
                       FLDConfig(**TINY))
        assert result.history["loss"][-1] < 0.5 * result.history["loss"][0]

    def test_seed_determinism_bit_exact(self):
        corpus = tiny_corpus()
        r1 = train("fld", corpus, tiny_train_config(), FLDConfig(**TINY))
        r2 = train("fld", corpus, tiny_train_config(), FLDConfig(**TINY))
        assert np.array_equal(r1.history["loss"], r2.history["loss"])
        for name in r1.checkpoint.arrays:
            assert np.array_equal(r1.checkpoint.arrays[name],
                                  r2.checkpoint.arrays[name]), name

    def test_pae_is_fld_with_zero_horizon(self):
        corpus = tiny_corpus()
        cfg = FLDConfig(**TINY)
        r_pae = train("pae", corpus, tiny_train_config(iters=10), cfg)
        r_fld0 = train("fld", corpus, tiny_train_config(iters=10),
                       FLDConfig(**{**TINY, "horizon": 0}))
        assert np.array_equal(r_pae.history["loss"], r_fld0.history["loss"])
        for name in r_pae.checkpoint.arrays:
            assert np.array_equal(r_pae.checkpoint.arrays[name],
                                  r_fld0.checkpoint.arrays[name]), name

    def test_divergence_aborts_with_diagnostic(self):
        # the first huge step leaves finite weights whose next loss overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="^ff training diverged at iteration 1: "
                                                   "loss inf; lower the learning rate$"):
                train("ff", tiny_corpus(1), tiny_train_config(iters=50, lr=1e60),
                      FFConfig(dims=3, window=16, hidden=(16, 8)))

    def test_divergence_in_the_optimizer_step_has_the_diagnostic(self):
        # a step of 1e308 overflows the first weights inside Adam.step
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="diverged at iteration 0: non-finite "
                                                   "values in parameter enc.conv0.weight"):
                train("fld", tiny_corpus(1), tiny_train_config(iters=2, lr=1e308),
                      FLDConfig(**TINY))

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", 0.0),
        ("weight_decay", float("nan")), ("weight_decay", float("inf")), ("weight_decay", -1e-4),
        ("batch_size", 2.5), ("max_iterations", 0), ("epochs", True),
        ("mini_batches", float("nan")),
    ])
    def test_bad_train_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            tiny_train_config(**{field: value})

    def test_train_config_counts_are_stored_as_int(self):
        config = tiny_train_config(iters=np.int64(3), batch_size=np.int32(4))
        assert type(config.max_iterations) is int and type(config.batch_size) is int

    @pytest.mark.parametrize("seed", [2.5, -1, True])
    def test_bad_seed_rejected_up_front(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            tiny_train_config(seed=seed)

    def test_numpy_integer_seed_is_stored_as_int(self):
        config = tiny_train_config(seed=np.uint32(7))
        assert type(config.seed) is int and config.seed == 7

    def test_corpus_of_mixed_dims_or_dt_rejected(self):
        corpus = tiny_corpus(2)
        mixed_dt = [corpus[0], Trajectory(corpus[1].frames, dt=0.01)]
        mixed_dims = [corpus[0], Trajectory(corpus[1].frames[:, :2], dt=0.02)]
        for bad, mismatch in ((mixed_dt, "dims 3, dt 0.01"), (mixed_dims, "dims 2, dt 0.02")):
            # without a model config, the first trajectory sets dims and dt
            for kind, config in (("fld", FLDConfig(**TINY)), ("ff", None)):
                with pytest.raises(ValueError, match=re.escape(
                        f"model config dims 3, dt 0.02 != corpus {mismatch} of trajectory 1")):
                    train(kind, bad, tiny_train_config(), config)

    @pytest.mark.parametrize("kind", ["fld", "ff"])
    def test_normalization_of_other_dims_rejected_before_the_first_step(self, kind, monkeypatch):
        steps = []

        def counted_step(model, items):
            steps.append(items)
            return 0.0, {}

        for cls in (FLDModel, FFBaseline):
            monkeypatch.setattr(cls, "train_loss", counted_step)
        with pytest.raises(ValueError, match="^normalization has 1 dims, model config 3$"):
            train(kind, tiny_corpus(1), tiny_train_config(iters=5), None,
                  NormalizationStats(np.zeros(1), np.ones(1)))
        assert steps == []

    def test_model_config_dt_must_match_the_corpus(self):
        with pytest.raises(ValueError, match=r"dt 0\.05 != corpus dims 3, dt 0\.02"):
            train("fld", tiny_corpus(1), tiny_train_config(), FLDConfig(**{**TINY, "dt": 0.05}))

    def test_corpus_too_short_rejected(self):
        short = [Trajectory(np.zeros((10, 3)))]
        with pytest.raises(ValueError, match="long enough"):
            train("fld", short, tiny_train_config(), FLDConfig(**TINY))

    def test_unknown_model_kind_rejected(self):
        with pytest.raises(ValueError, match="model kind"):
            train("gru", tiny_corpus(1), tiny_train_config())

    def test_ff_trains(self):
        corpus = tiny_corpus(1)
        r_ff = train("ff", corpus, tiny_train_config(iters=30),
                     FFConfig(dims=3, window=16, hidden=(32,)))
        assert r_ff.history["loss"][-1] < r_ff.history["loss"][0]


class TestRelativeError:
    def test_perfect_oracle_is_zero(self):
        x = np.random.default_rng(0).normal(size=(5, 4, 3, 16))
        assert np.all(relative_error(x, x) == 0.0)

    def test_persistence_on_sinusoid_oscillates_with_period(self):
        # predicting "no change" on a sinusoid: error returns to ~0 each period
        dt, freq, h = 0.02, 2.5, 11  # period = 20 frames
        t = np.arange(400)
        sig = np.sin(2 * np.pi * freq * t * dt)[:, None]
        view = np.lib.stride_tricks.sliding_window_view(sig, h, axis=0)
        anchor = view[0]
        errs = np.array([float(relative_error(anchor, view[i])) for i in range(120)])
        period = 20
        assert errs[0] == 0.0
        assert errs[period // 2] > 0.5          # grows away from the anchor
        assert errs[period] < 0.05              # oscillates back near zero
        assert errs[period + period // 2] > 0.5


class TestEvaluatePrediction:
    def trained(self):
        corpus = tiny_corpus()
        fld = train("fld", corpus, tiny_train_config(iters=15), FLDConfig(**TINY))
        ff = train("ff", corpus, tiny_train_config(iters=15),
                   __import__("fld.model", fromlist=["FFConfig"]).FFConfig(
                       dims=3, window=16, hidden=(32,)))
        return corpus, fld, ff

    def test_report_structure(self):
        corpus, fld, ff = self.trained()
        report = evaluate_prediction({"fld": fld.checkpoint, "ff": ff.checkpoint},
                                     corpus[0], horizons=[0, 1, 3], anchor_stride=10)
        assert report.horizons.tolist() == [0, 1, 3]
        assert set(report.errors) == {"fld", "ff"}
        assert all(np.all(v >= 0) for v in report.errors.values())
        assert set(report.anchor_count) == {"fld", "ff"}
        assert all(count > 0 for count in report.anchor_count.values())

    def test_anchor_count_per_model_window(self):
        corpus = tiny_corpus(frames=60)
        ckpts = {"fld": train("fld", corpus, tiny_train_config(iters=1),
                              FLDConfig(**TINY)).checkpoint,
                 "ff": train("ff", corpus, tiny_train_config(iters=1),
                             FFConfig(dims=3, window=30, hidden=(8,))).checkpoint}
        # 60 frames hold 45 windows of 16 and 31 of 30; horizon 2 drops two anchors each
        for order in (("fld", "ff"), ("ff", "fld")):
            report = evaluate_prediction({name: ckpts[name] for name in order}, corpus[0],
                                         horizons=[0, 2], anchor_stride=1)
            assert report.anchor_count == {"fld": 43, "ff": 29}

    def test_horizon_exceeding_trajectory_rejected(self):
        corpus, fld, _ = self.trained()
        short = Trajectory(corpus[0].frames[:18], dt=0.02)
        with pytest.raises(ValueError, match="^corpus has no trajectory long enough "
                                             "for window 16 plus horizon 10$"):
            evaluate_prediction({"fld": fld.checkpoint}, short, horizons=[10])

    def test_fld_and_pae_run_frozen(self, monkeypatch):
        corpus, fld, ff = self.trained()
        pae = train("pae", corpus, tiny_train_config(iters=15), FLDConfig(**TINY))
        ckpts = {"fld": fld.checkpoint, "ff": ff.checkpoint, "pae": pae.checkpoint}
        frozen, freeze = [], FLDModel.freeze

        def counted_freeze(model):
            frozen.append(model.config.horizon)
            return freeze(model)

        monkeypatch.setattr(FLDModel, "freeze", counted_freeze)
        got = evaluate_prediction(ckpts, corpus[0], [0, 1, 3], anchor_stride=4)
        assert frozen == [TINY["horizon"], 0]
        # the same evaluation with the batch norms unfolded
        monkeypatch.setattr("fld.model.fold_batch_norm", unfold_batch_norm)
        want = evaluate_prediction(ckpts, corpus[0], [0, 1, 3], anchor_stride=4)
        assert np.array_equal(got.errors["ff"], want.errors["ff"])
        for name in ("fld", "pae"):
            assert np.allclose(got.errors[name], want.errors[name], rtol=1e-12, atol=0), name

    def test_every_predicting_model_runs_frozen(self, monkeypatch):
        corpus, fld, ff = self.trained()
        frozen, freeze = [], BlockModel.freeze

        def counted_freeze(model):
            frozen.append(type(model).__name__)
            return freeze(model)

        monkeypatch.setattr(BlockModel, "freeze", counted_freeze)
        evaluate_prediction({"ff": ff.checkpoint, "fld": fld.checkpoint}, corpus[0], [0, 2],
                            anchor_stride=4)
        assert frozen == ["FFBaseline", "FLDModel"]

    def test_deterministic(self):
        corpus, fld, _ = self.trained()
        r1 = evaluate_prediction({"fld": fld.checkpoint}, corpus[0], [0, 2])
        r2 = evaluate_prediction({"fld": fld.checkpoint}, corpus[0], [0, 2])
        assert np.array_equal(r1.errors["fld"], r2.errors["fld"])


class TestManifoldAndConstancy:
    def test_manifold_export_runs(self):
        corpus = tiny_corpus()
        result = train("fld", corpus, tiny_train_config(iters=10), FLDConfig(**TINY))
        points = export_latent_manifold(result.checkpoint, corpus, anchor_stride=4)
        assert len(points) > 10
        labels = {p.label for p in points}
        assert labels == {"family-0", "family-1"}

    def test_manifold_degenerate_points_give_zeros(self):
        # constant trajectories -> identical features -> degenerate PCA
        corpus = [Trajectory(np.ones((60, 3)), label="flat"),
                  Trajectory(np.ones((60, 3)) * 1.0, label="flat2")]
        result = train("fld", tiny_corpus(), tiny_train_config(iters=3), FLDConfig(**TINY))
        points = export_latent_manifold(result.checkpoint, corpus, anchor_stride=4)
        xs = np.array([[p.x, p.y] for p in points])
        assert np.max(np.abs(xs)) < 1e-9

    def test_manifold_too_few_frames_rejected(self):
        result = train("fld", tiny_corpus(), tiny_train_config(iters=3), FLDConfig(**TINY))
        with pytest.raises(ValueError, match="^corpus has no trajectory long enough "
                                             "for window 16 plus horizon 0$"):
            export_latent_manifold(result.checkpoint, [Trajectory(np.ones((5, 3)))])

    def test_manifold_two_windowable_frames_rejected(self):
        result = train("fld", tiny_corpus(), tiny_train_config(iters=3), FLDConfig(**TINY))
        with pytest.raises(ValueError, match="3 windowable"):
            export_latent_manifold(result.checkpoint, [Trajectory(np.ones((17, 3)))])

    def test_manifold_points_keep_corpus_index_label_and_newest_frame(self):
        long_a, long_b = tiny_corpus()
        corpus = [long_a, Trajectory(long_a.frames[:10]), Trajectory(long_b.frames[:70])]
        result = train("fld", tiny_corpus(), tiny_train_config(iters=3), FLDConfig(**TINY))
        points = export_latent_manifold(result.checkpoint, corpus, anchor_stride=3)
        window = TINY["window"]
        expected = [(ti, label, fi) for ti, label in ((0, "family-0"), (2, "trajectory-2"))
                    for fi in range(window - 1, len(corpus[ti]), 3)]
        assert [(p.trajectory, p.label, p.frame) for p in points] == expected

    def test_quasi_constancy_untrained_smoke(self):
        corpus = tiny_corpus()
        result = train("fld", corpus, tiny_train_config(iters=3), FLDConfig(**TINY))
        report = quasi_constancy_report(result.checkpoint, corpus, anchor_stride=4)
        assert np.isfinite(report.mean_ratio)
        assert set(report.ratio) == {"f", "a", "b"}

    def test_identical_trajectories_rejected(self):
        corpus = tiny_corpus(1) * 2  # two references to the same trajectory
        result = train("fld", tiny_corpus(), tiny_train_config(iters=3), FLDConfig(**TINY))
        with pytest.raises(ValueError, match="zero"):
            quasi_constancy_report(result.checkpoint, corpus, anchor_stride=4)

    def test_single_trajectory_rejected(self):
        result = train("fld", tiny_corpus(), tiny_train_config(iters=3), FLDConfig(**TINY))
        with pytest.raises(ValueError, match="two windowable"):
            quasi_constancy_report(result.checkpoint, tiny_corpus(1))

    def test_short_trajectory_does_not_count_as_windowable(self):
        result = train("fld", tiny_corpus(), tiny_train_config(iters=3), FLDConfig(**TINY))
        corpus = [tiny_corpus(1)[0], Trajectory(np.ones((15, 3)))]
        with pytest.raises(ValueError, match="two windowable"):
            quasi_constancy_report(result.checkpoint, corpus)

    def test_quasi_constancy_matches_per_trajectory_analysis(self):
        long_a, long_b = tiny_corpus()
        corpus = [long_a, Trajectory(long_a.frames[:12]), long_b]
        result = train("fld", tiny_corpus(), tiny_train_config(iters=3), FLDConfig(**TINY))
        report = quasi_constancy_report(result.checkpoint, corpus, anchor_stride=5)
        model = build_model(result.checkpoint).freeze()
        params = []
        for traj in (long_a, long_b):
            normed = result.checkpoint.normalization.apply(traj.frames)
            params.append(model.analyze(segment_view(normed, TINY["window"])[::5])[1:4])
        for k, key in enumerate("fab"):
            within = np.mean([p[k].std(axis=0) for p in params], axis=0)
            across = np.std([p[k].mean(axis=0) for p in params], axis=0)
            np.testing.assert_allclose(report.within[key], within, rtol=0, atol=1e-12)
            np.testing.assert_allclose(report.across[key], across, rtol=0, atol=1e-12)
