import numpy as np
import pytest

from fld.checkpoint import build_fld_model, build_model
from fld.dynamics import (
    GateConfig,
    GateRunner,
    LatentRollState,
    anchored_gate_loss,
    calibrate_threshold,
    decode_state_frame,
    encode_state,
    gate_step,
    interpolate_theta,
    propagate,
    synthesize,
)
from fld.model import FLDConfig, VAEConfig, wrap_phase
from fld.signals import ItemPool, SyntheticMotionSpec, generate_synthetic, segment_view
from fld.stats import quantile_midpoint
from fld.training import (
    TrainConfig,
    evaluate_prediction,
    export_latent_manifold,
    quasi_constancy_report,
    train,
)

TINY = dict(dims=3, channels=2, window=16, horizon=3, dt=0.02, hidden=8)


def corpus(n_traj=2, frames=120, freq=1.5, seed=0):
    rng = np.random.default_rng(seed)
    return [generate_synthetic(SyntheticMotionSpec(
        base_frequency=freq + 0.4 * i, amplitudes=rng.uniform(0.5, 1.5, 3),
        phase_offsets=rng.uniform(0, 1, 3), means=rng.normal(scale=0.3, size=3),
        frames=frames, dt=0.02, seed=seed + i)) for i in range(n_traj)]


def train_config():
    return TrainConfig(max_iterations=5, lr=2e-3, epochs=1, mini_batches=1,
                       batch_size=8, seed=1)


@pytest.fixture(scope="module")
def fld_checkpoint():
    return train("fld", corpus(), train_config(), FLDConfig(**TINY)).checkpoint


@pytest.fixture(scope="module")
def vae_checkpoint():
    return train("vae", corpus(), train_config(),
                 VAEConfig(dims=3, window=16, latent=2, hidden=(16, 8))).checkpoint


@pytest.mark.parametrize("entry, message", [
    (lambda ck: export_latent_manifold(ck, corpus()), "latent manifold export"),
    (lambda ck: quasi_constancy_report(ck, corpus()), "quasi-constancy"),
    (lambda ck: synthesize(ck, None, 3), "synthesis"),
    (lambda ck: calibrate_threshold(ck, corpus()), "gate calibration"),
    (lambda ck: GateRunner(ck, GateConfig(epsilon=1.0)), "the gate"),
])
def test_fld_only_entry_points_reject_vae(vae_checkpoint, entry, message):
    with pytest.raises(ValueError, match=f"^{message} needs an fld or pae checkpoint$"):
        entry(vae_checkpoint)


@pytest.mark.parametrize("kwargs, message", [
    (dict(epsilon=float("nan")), "epsilon must be positive"),
    (dict(epsilon=0.0), "epsilon must be positive"),
    (dict(epsilon=-1.0), "epsilon must be positive"),
    (dict(epsilon=1.0, quantile=0.0), "quantile must be in"),
    (dict(epsilon=1.0, quantile=1.5), "quantile must be in"),
])
def test_gate_config_rejects_bad_threshold(kwargs, message):
    with pytest.raises(ValueError, match=message):
        GateConfig(**kwargs)


@pytest.mark.parametrize("epsilon", [1e-300, float("inf")])
def test_gate_config_accepts_tiny_and_infinite_epsilon(epsilon):
    assert GateConfig(epsilon=epsilon).epsilon == epsilon


@pytest.mark.parametrize("values, q, want", [
    ([1, 2, 3, 4], 0.5, 2.5),             # q*n on a rank boundary: the midpoint
    ([1, 2, 3, 4], 1.0, 4.0),
    ([1, 2, 3, 4, 100], 0.3, 2.0),
    ([1, 2, 3, 4, 100], 1e-13, 1.0),      # q*n < 1: the min, not a wrap to the max
    ([100, 4, 3, 2, 1], 0.1, 1.0),
    (np.arange(1, 17076.0), 0.56, 9562.5),  # q*n = 9562.000000000002: still a rank boundary
])
def test_quantile_midpoint(values, q, want):
    assert quantile_midpoint(np.array(values), q) == want


def test_calibrated_epsilon_is_quantile_of_strided_anchor_losses(fld_checkpoint):
    data = corpus(frames=90)
    gate = calibrate_threshold(fld_checkpoint, data, quantile=0.9, anchor_stride=4)
    model = build_fld_model(fld_checkpoint, "gate calibration")
    n, window = model.config.horizon, model.config.window
    losses = []
    for traj in data:
        view = segment_view(fld_checkpoint.normalization.apply(traj.frames), window)
        losses += [anchored_gate_loss(model, view[wi:wi + n + 1])
                   for wi in range(0, view.shape[0] - n, 4)]
    assert gate.anchor_count == len(losses)
    assert gate.epsilon == quantile_midpoint(np.array(losses), 0.9)


@pytest.mark.parametrize("entry", [
    lambda ck, s: calibrate_threshold(ck, corpus(), anchor_stride=s),
    lambda ck, s: evaluate_prediction({"fld": ck}, corpus(1)[0], [0, 1], anchor_stride=s),
    lambda ck, s: export_latent_manifold(ck, corpus(), anchor_stride=s),
    lambda ck, s: quasi_constancy_report(ck, corpus(), anchor_stride=s),
], ids=["calibration", "prediction", "manifold", "quasi-constancy"])
@pytest.mark.parametrize("stride", [0, -2])
def test_anchor_stride_below_one_rejected(fld_checkpoint, entry, stride):
    with pytest.raises(ValueError, match=f"^anchor_stride must be >= 1, got {stride}$"):
        entry(fld_checkpoint, stride)


def test_calibration_rejects_a_corpus_without_a_full_item(fld_checkpoint):
    # window 16 plus horizon 3 needs 19 frames
    with pytest.raises(ValueError, match="no trajectory long enough for window 16 plus horizon 3"):
        calibrate_threshold(fld_checkpoint, corpus(frames=18))


def test_gate_scores_exactly_the_calibration_item(fld_checkpoint):
    runner = GateRunner(fld_checkpoint, GateConfig(epsilon=float("inf")))
    cfg = runner.model.config
    frames = corpus(1, frames=40)[0].frames
    pool = ItemPool([fld_checkpoint.normalization.apply(frames)], cfg.window, cfg.horizon)
    scored = [(t, d) for t, d in enumerate(map(runner.step, frames)) if d.loss is not None]
    assert [t for t, _ in scored] == list(range(cfg.window + cfg.horizon - 1, len(frames)))
    for t, decision in scored:
        k = t - (cfg.window + cfg.horizon - 1)
        assert decision.loss == anchored_gate_loss(runner.model, pool.item(k))
        # the accepted state is the newest segment's encoding, analysed once
        assert decision.verdict == "accepted"
        want = encode_state(runner.model, pool.item(k)[-1])
        for key in ("phi", "freq", "amp", "offset"):
            assert getattr(decision.state, key).tobytes() == getattr(want, key).tobytes()


def test_gate_model_parameters_cannot_be_written(fld_checkpoint):
    runner = GateRunner(fld_checkpoint, GateConfig(epsilon=1.0))
    for p in runner.model.parameters():
        with pytest.raises(ValueError, match="read-only"):
            p.value[...] = 0.0
        with pytest.raises(ValueError, match="WRITEABLE"):
            p.value.setflags(write=True)


def test_gate_analyses_each_segment_once(fld_checkpoint, monkeypatch):
    runner = GateRunner(fld_checkpoint, GateConfig(epsilon=float("inf")))
    window = runner.model.config.window
    calls = []
    analyze = runner.model.analyze

    def counted(*args, **kwargs):
        calls.append(args)
        return analyze(*args, **kwargs)

    monkeypatch.setattr(runner.model, "analyze", counted)
    frames = corpus(1, frames=40)[0].frames

    def counts(stream):
        out = []
        for frame in stream:
            before = len(calls)
            runner.step(frame)
            out.append(len(calls) - before)
        return out

    want = [0] * (window - 1) + [1] * (len(frames) - window + 1)
    assert counts(frames) == want
    assert counts([None]) == [0]
    assert counts(frames) == want


def decisions_of(runner, frames):
    return [(d.verdict, d.loss, d.state.step, *(getattr(d.state, key).tobytes()
             for key in ("phi", "freq", "amp", "offset")), d.target_frame.tobytes())
            for d in map(runner.step, frames)]


def test_runner_rejects_malformed_frames_and_keeps_its_window(fld_checkpoint):
    frames = corpus(1, frames=45)[0].frames
    dims = frames.shape[1]
    clean = GateRunner(fld_checkpoint, GateConfig(epsilon=1.0))
    probed = GateRunner(fld_checkpoint, GateConfig(epsilon=1.0))
    bad_frames = [np.float64(0.5), np.zeros(dims + 1), np.r_[np.nan, np.zeros(dims - 1)],
                  np.r_[np.zeros(dims - 1), np.inf]]
    for bad in bad_frames:
        with pytest.raises(ValueError, match="gate frame"):
            probed.step(bad)
    split = 25  # mid-stream: a bad frame taken in would be scored, then sit in the anchor
    want = decisions_of(clean, frames)
    got = decisions_of(probed, frames[:split])
    with pytest.raises(ValueError, match="gate frame"):
        probed.step(np.full(dims, np.nan))
    got += decisions_of(probed, frames[split:])
    assert got == want


def test_runner_treats_a_frame_the_encoder_overflows_as_a_gap(fld_checkpoint):
    # 1e308 is finite raw and normalized, but not through the encoder
    frames = corpus(1, frames=70)[0].frames
    huge = np.r_[1e308, np.zeros(frames.shape[1] - 1)]
    split = 25  # the window holds a full segment, so the frame is analysed at once
    probed = GateRunner(fld_checkpoint, GateConfig(epsilon=1.0))
    gapped = GateRunner(fld_checkpoint, GateConfig(epsilon=1.0))
    got = decisions_of(probed, frames[:split])
    with pytest.raises(ValueError, match="gate frame"):
        probed.step(huge)
    assert len(probed.frames) == len(probed.analyses) == 0
    got += decisions_of(probed, frames[split:])
    want = decisions_of(gapped, list(frames[:split]) + [None]) + decisions_of(gapped, frames[split:])
    del want[split]  # the gap's own no_input decision
    verdicts = [(d[0], d[1]) for d in got]
    assert verdicts == [(d[0], d[1]) for d in want]
    assert {"accepted", "rejected"} & {v for v, _ in verdicts[split:]}


def test_runner_raises_a_warm_up_overflow_when_its_segment_completes(fld_checkpoint):
    frames = list(corpus(1, frames=70)[0].frames)
    frames[5] = np.r_[1e308, np.zeros(frames[5].shape[0] - 1)]
    probed = GateRunner(fld_checkpoint, GateConfig(epsilon=1.0))
    gapped = GateRunner(fld_checkpoint, GateConfig(epsilon=1.0))
    h = probed.model.config.window
    got = decisions_of(probed, frames[:h - 1])
    with pytest.raises(ValueError, match=f"gate frame.*newest {h} frames"):
        probed.step(frames[h - 1])
    assert len(probed.frames) == len(probed.analyses) == 0
    got += decisions_of(probed, frames[h:])
    want = decisions_of(gapped, frames[:h - 1] + [None] + frames[h:])
    del want[h - 1]  # the gap's own no_input decision
    verdicts = [(d[0], d[1]) for d in got]
    assert verdicts == [(d[0], d[1]) for d in want]
    assert {"accepted", "rejected"} & {v for v, _ in verdicts}


def test_fallback_stream_is_the_synthesis_rollout(fld_checkpoint):
    model = build_model(fld_checkpoint)
    data = corpus(1)[0].frames
    start = encode_state(model, fld_checkpoint.normalization.apply(data[:16]).T)
    runner = GateRunner(fld_checkpoint, GateConfig(epsilon=1e-300))
    runner.state = start
    decisions = [runner.step(f) for f in list(data[:40]) + [None] + list(data[40:60])]
    assert {d.verdict for d in decisions} == {"rejected", "no_input"}
    emitted = np.array([d.target_frame for d in decisions])
    rolled = synthesize(fld_checkpoint, decisions[0].state, len(decisions)).frames
    assert np.max(np.abs(emitted - rolled)) / max(1.0, np.max(np.abs(rolled))) < 1e-12


def test_runner_starts_from_the_zero_state(fld_checkpoint):
    runner = GateRunner(fld_checkpoint, GateConfig(epsilon=1.0))
    state = runner.state
    c = runner.model.config.channels
    for values in (state.phi, state.freq, state.amp, state.offset):
        assert np.array_equal(values, np.zeros(c))
    assert state.step == 0
    first = runner.step(corpus(1)[0].frames[0])
    assert first.verdict == "no_input" and first.state.step == 1
    assert np.array_equal(first.state.phi, np.zeros(c))


def test_runner_emits_no_input_during_warm_up_and_after_gap(fld_checkpoint):
    runner = GateRunner(fld_checkpoint, GateConfig(epsilon=1e9))
    cfg = runner.model.config
    frames = corpus(1)[0].frames
    # a full window holds window + horizon frames
    warm = runner.frames.maxlen
    assert warm == cfg.window + cfg.horizon
    verdicts = [runner.step(f).verdict for f in frames[:warm]]
    assert verdicts == ["no_input"] * (warm - 1) + ["accepted"]
    assert runner.step(None).verdict == "no_input"
    assert len(runner.frames) < runner.frames.maxlen
    # after a gap the window refills from scratch before the gate scores again
    verdicts = [runner.step(f).verdict for f in frames[warm:2 * warm]]
    assert verdicts == ["no_input"] * (warm - 1) + ["accepted"]


def test_synthesize_matches_iterated_propagation(fld_checkpoint):
    model = build_model(fld_checkpoint)
    segment = fld_checkpoint.normalization.apply(corpus(1)[0].frames[:16]).T
    state = encode_state(model, segment)
    rolled = synthesize(fld_checkpoint, state, 25).frames
    iterated = []
    for _ in range(25):
        iterated.append(decode_state_frame(model, state, fld_checkpoint.normalization)[1])
        state = propagate(state, model.config.dt)
    assert np.max(np.abs(rolled - np.array(iterated))) < 1e-12


def random_state(rng, c=2, step=0):
    return LatentRollState(phi=rng.uniform(-0.5, 0.5, c), freq=rng.uniform(0.5, 3.0, c),
                           amp=rng.uniform(0.2, 1.5, c), offset=rng.normal(size=c), step=step)


def test_interpolate_theta_endpoints_and_phase_advance():
    rng = np.random.default_rng(4)
    src, dst = random_state(rng, 3), random_state(rng, 3)
    dt, steps = 0.02, 7
    states = interpolate_theta(src, dst, steps, dt)
    assert [s.step for s in states] == list(range(steps + 1))
    first, last = states[0], states[-1]
    assert np.array_equal(first.phi, src.phi)
    for got, want in ((first, src), (last, dst)):
        assert np.array_equal(got.freq, want.freq)
        assert np.array_equal(got.amp, want.amp)
        assert np.array_equal(got.offset, want.offset)
    for prev, cur in zip(states, states[1:]):
        assert np.max(np.abs(wrap_phase(cur.phi - prev.phi - prev.freq * dt))) < 1e-12


def test_interpolate_theta_rejects_bad_input():
    rng = np.random.default_rng(5)
    src = random_state(rng, 2)
    with pytest.raises(ValueError, match="steps"):
        interpolate_theta(src, random_state(rng, 2), 0, 0.02)
    with pytest.raises(ValueError, match="channel counts"):
        interpolate_theta(src, random_state(rng, 3), 4, 0.02)


def test_propagation_is_a_grid_shift(fld_checkpoint):
    model = build_model(fld_checkpoint)
    state = random_state(np.random.default_rng(6))
    shifted, _ = model.render(state.phi, state.freq, state.amp, state.offset, [1])
    segment, _ = decode_state_frame(model, propagate(state, model.config.dt),
                                    fld_checkpoint.normalization)
    assert np.max(np.abs(segment - shifted[0, 0])) < 1e-12


def test_gate_without_input_propagates_and_decodes(fld_checkpoint):
    model = build_model(fld_checkpoint)
    state = random_state(np.random.default_rng(7), step=3)
    decision = gate_step(None, None, state, GateConfig(epsilon=1.0), model,
                         fld_checkpoint.normalization)
    expected = propagate(state, model.config.dt)
    segment, frame = decode_state_frame(model, expected, fld_checkpoint.normalization)
    assert decision.verdict == "no_input" and decision.loss is None
    assert decision.state.step == expected.step == 4
    for key in ("phi", "freq", "amp", "offset"):
        assert np.array_equal(getattr(decision.state, key), getattr(expected, key))
    assert np.array_equal(decision.target_segment, segment)
    assert np.array_equal(decision.target_frame, frame)


def test_gate_rejects_a_stack_of_the_wrong_length(fld_checkpoint):
    model = build_model(fld_checkpoint)
    n, window = model.config.horizon, model.config.window
    view = segment_view(fld_checkpoint.normalization.apply(corpus(1)[0].frames), window)
    state = random_state(np.random.default_rng(8))
    for count in (n, n + 2):
        analyses = [model.analyze(view[i:i + 1])[:4] for i in range(count)]
        with pytest.raises(ValueError, match=f"full buffer of {n + 1} segments, got {count}"):
            gate_step(view[:count], analyses, state, GateConfig(epsilon=1.0), model,
                      fld_checkpoint.normalization)
