"""Latent propagation, autoregressive synthesis, parameterization
interpolation, and the online tracking-target gate with fallback.

Encoding, decoding and scoring go through ``FLDModel.analyze``,
``FLDModel.render`` and ``FLDModel.propagation_loss``, as training does.
The gate, calibration and synthesis run the frozen model that
``build_fld_model`` returns, as every inference entry point in ``fld``
does: every batch norm folded into the layer before it, and the weights
and gradients immutable. No call takes a mode: the model's state selects
its forward pass, and on an unfrozen model these calls train batch norm.

The gate consumes a stream of frames through a window of the newest H+N
frames, which holds the N+1 segments of one item (an anchor segment and
its N successors, so every prediction step 0..N has ground truth), cut by
the same ``segment_view`` that calibration and training slice items with,
and the analysis of each segment, made once, when it was the newest. Each
step ``gate_step`` receives the item and its analyses, or None while the
window is not full (warm-up, or after a gap). With an item it scores the
oldest analysis and either takes the state from the newest (accepted) or
propagates the latent dynamics (rejected); with None it always propagates
(no input). The emitted frame is always decoded from the resulting state
by a one-step render, so under fallback the emitted stream is the synthesis
rollout of the propagated state to rounding, not bitwise: synthesis renders
all its steps in one batch, and more than 2c+1 steps on the sinusoid basis
(``FLDModel.render``), as the gate's and calibration's anchored losses
render their N+1 steps.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import ModelCheckpoint, build_fld_model
from .model import FLDModel, as_int, wrap_phase
from .signals import ItemPool, Trajectory, segment_view
from .stats import quantile_midpoint


@dataclass
class LatentRollState:
    """Phase (cycles, wrapped) plus the frozen parameterization of a roll:
    finite 1-D arrays of one shape, and an integer step >= 0."""

    phi: np.ndarray        # (c,)
    freq: np.ndarray       # (c,) Hz
    amp: np.ndarray        # (c,)
    offset: np.ndarray     # (c,)
    step: int = 0

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=np.float64)
                  for a in (self.phi, self.freq, self.amp, self.offset)]
        shapes = [a.shape for a in arrays]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ValueError(f"phi, freq, amp and offset must be 1-D of one shape, got {shapes}")
        for name, a in zip(("phi", "freq", "amp", "offset"), arrays):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite, got {a!r}")
        self.phi, self.freq, self.amp, self.offset = wrap_phase(arrays[0]), *arrays[1:]
        self.step = as_int("step", self.step, 0)


def propagate(state: LatentRollState, dt: float) -> LatentRollState:
    """One latent-dynamics step: theta unchanged, phi advanced by f*dt."""
    return LatentRollState(phi=wrap_phase(state.phi + state.freq * dt),
                           freq=state.freq, amp=state.amp, offset=state.offset,
                           step=state.step + 1)


def encode_state(model: FLDModel, segment: np.ndarray) -> LatentRollState:
    """Latent state and parameterization of one normalized segment."""
    phi, f, a, b, _ = model.analyze(segment[None])
    return LatentRollState(phi=phi[0], freq=f[0], amp=a[0], offset=b[0])


def decode_state_frame(model: FLDModel, state: LatentRollState,
                       normalization) -> tuple[np.ndarray, np.ndarray]:
    """Decode the segment for a latent state; returns (normalized segment
    (d, H), denormalized newest frame (d,))."""
    shat, _ = model.render(state.phi, state.freq, state.amp, state.offset, [0])
    segment = shat[0, 0]
    return segment, normalization.invert(segment[:, -1])


def synthesize(checkpoint: ModelCheckpoint, state: LatentRollState,
               steps: int) -> Trajectory:
    """Autoregressive rollout: decode the current state, emit its newest
    frame (denormalized), then propagate; repeated ``steps`` times.

    The parameterization is constant along the roll, so all steps are
    rendered as one batch of step offsets 0..steps-1. Per-step decoding
    agrees to rounding (about 1e-15), not bitwise: the phase is not wrapped
    between steps, batches of different sizes take different BLAS kernels,
    and more than 2c+1 steps run decoder block 0 on the sinusoid basis.
    ``steps`` is an integer >= 1.
    """
    steps = as_int("steps", steps, 1)
    model = build_fld_model(checkpoint, "synthesis")
    shat, _ = model.render(state.phi, state.freq, state.amp, state.offset, np.arange(steps))
    frames = checkpoint.normalization.invert(shat[0, :, :, -1])
    return Trajectory(frames, dt=model.config.dt)


def interpolate_theta(src: LatentRollState, dst: LatentRollState, steps: int,
                      dt: float) -> list[LatentRollState]:
    """Componentwise linear blend between two parameterizations.

    Returns states 0..steps with blend factor k/steps; phase starts at the
    source and advances by the blended frequency at each step, so the
    transition stays temporally coherent. ``steps`` is an integer >= 1, and
    0 < dt < inf.
    """
    steps = as_int("steps", steps, 1)
    if not 0 < dt < np.inf:  # NaN fails too
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if src.freq.shape != dst.freq.shape:
        raise ValueError("parameterizations have different channel counts")
    out = []
    phi = src.phi.copy()
    for k in range(steps + 1):
        lam = k / steps
        freq = (1 - lam) * src.freq + lam * dst.freq
        amp = (1 - lam) * src.amp + lam * dst.amp
        offset = (1 - lam) * src.offset + lam * dst.offset
        out.append(LatentRollState(phi=phi.copy(), freq=freq, amp=amp,
                                   offset=offset, step=k))
        phi = wrap_phase(phi + freq * dt)
    return out


@dataclass
class GateConfig:
    epsilon: float
    quantile: float = 0.99
    corpus_hash: str = ""
    anchor_count: int = 0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {self.quantile}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class GateDecision:
    verdict: str                      # accepted | rejected | no_input
    loss: float | None
    state: LatentRollState
    target_segment: np.ndarray        # normalized (d, H)
    target_frame: np.ndarray          # denormalized (d,)


def anchored_gate_loss(model: FLDModel, segments: np.ndarray,
                       anchor: tuple | None = None) -> float:
    """Training loss of the stack (N+1, d, H) anchored at its earliest
    segment, whose (phi, f, a, b) ``anchor`` gives if it is already
    analysed. Without ``anchor`` it is ``loss_and_grads`` in eval mode, which
    scores an unfrozen model's frozen copy."""
    if anchor is None:
        return model.loss_and_grads(segments[None], mode="eval", want_grads=False)[0]
    return model.propagation_loss(anchor, segments[None])[0]


def calibrate_threshold(checkpoint: ModelCheckpoint, corpus: list[Trajectory],
                        quantile: float = 0.99, anchor_stride: int = 5) -> GateConfig:
    """Gate threshold: the given quantile (midpoint convention) of the
    propagation loss of every ``anchor_stride``-th item of each trajectory
    in the training corpus."""
    model = build_fld_model(checkpoint, "gate calibration")
    pool = ItemPool(checkpoint.normalized_frames(corpus), model.config.window,
                    model.config.horizon)
    losses = [anchored_gate_loss(model, pool.item(k)) for k in pool.strided(anchor_stride)]
    hasher = hashlib.sha256()
    for ti in pool.trajectories:
        hasher.update(np.ascontiguousarray(corpus[ti].frames).tobytes())
    eps = quantile_midpoint(np.array(losses), quantile)
    return GateConfig(epsilon=eps, quantile=quantile,
                      corpus_hash=hasher.hexdigest()[:16],
                      anchor_count=len(losses))


def gate_step(segments: np.ndarray | None, analyses, state: LatentRollState,
              gate: GateConfig, model: FLDModel, normalization) -> GateDecision:
    """One decision step of the online tracking gate.

    ``segments`` is the item in the runner's full window, (N+1, d, H) oldest
    first, with the batch-1 (phi, f, a, b) ``analyses`` of its segments, or
    None when the window is not full: no input, fall back to propagation.
    Otherwise score the oldest analysis against the item; accept (taking
    phase and parameterization from the newest analysis) only when the
    loss is within the calibrated threshold, else fall back to propagation.
    """
    if segments is None:
        loss, verdict = None, "no_input"
    else:
        if not len(analyses) == segments.shape[0] == model.config.horizon + 1:
            raise ValueError(f"gate needs a full buffer of {model.config.horizon + 1} "
                             f"segments, got {segments.shape[0]} ({len(analyses)} analysed)")
        loss = anchored_gate_loss(model, segments, analyses[0])
        verdict = "accepted" if loss <= gate.epsilon else "rejected"
    if verdict == "accepted":
        phi, f, a, b = analyses[-1]
        new_state = LatentRollState(phi[0], f[0], a[0], b[0], step=state.step + 1)
    else:
        new_state = propagate(state, model.config.dt)
    segment, frame = decode_state_frame(model, new_state, normalization)
    return GateDecision(verdict=verdict, loss=loss, state=new_state,
                        target_segment=segment, target_frame=frame)


class GateRunner:
    """Frame-by-frame driver: keeps the newest H+N normalized frames and the
    ``analyze`` output of the newest N+1 segments, each made by the frame
    that completes its segment (a ``LatentRollState`` would re-wrap phi).
    Once the window is full each frame's ``gate_step`` gets the item
    anchored H+N-1 frames back and its analyses; while it is not (warm-up,
    or after a None frame empties it) it gets None: a ``no_input`` fallback.
    It starts from the all-zero state, which may be assigned before a step."""

    def __init__(self, checkpoint: ModelCheckpoint, gate: GateConfig):
        self.model = build_fld_model(checkpoint, "the gate")
        self.normalization = checkpoint.normalization
        self.gate = gate
        cfg = self.model.config
        self.frames: deque[np.ndarray] = deque(maxlen=cfg.window + cfg.horizon)
        self.analyses: deque[tuple] = deque(maxlen=cfg.horizon + 1)
        self.state = LatentRollState(*np.zeros((4, cfg.channels)))

    def step(self, frame: np.ndarray | None) -> GateDecision:
        """Advance one step with a raw (denormalized) frame of shape (dims,),
        or None for "no user input this step". A malformed or non-finite
        frame raises ValueError and leaves the runner unchanged. A frame
        that completes a segment the encoder cannot analyse in finite
        arithmetic raises ValueError too, after emptying the window as a
        None frame does, so the segment is never scored. Any of that
        segment's H frames may be at fault: one that overflows during
        warm-up or after a gap raises only once its segment is complete."""
        cfg = self.model.config
        if frame is None:
            self.frames.clear()
            self.analyses.clear()
        else:
            frame = np.asarray(frame, dtype=np.float64)
            if frame.shape != (cfg.dims,) or not np.all(np.isfinite(frame)):
                raise ValueError(f"gate frame must be {cfg.dims} finite values, "
                                 f"got shape {frame.shape}")
            self.frames.append(self.normalization.apply(frame))
        segments = None
        if len(self.frames) >= cfg.window:
            view = segment_view(np.stack(self.frames), cfg.window)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    analysis = self.model.analyze(view[-1:])[:4]
            except FloatingPointError as err:
                self.frames.clear()
                self.analyses.clear()
                raise ValueError("gate frame completes a segment that overflows the "
                                 f"encoder: any of the newest {cfg.window} frames may be "
                                 "at fault; the window was emptied as after a None "
                                 "frame") from err
            self.analyses.append(analysis)
            if len(self.frames) == self.frames.maxlen:
                segments = view
        decision = gate_step(segments, self.analyses, self.state, self.gate, self.model,
                             self.normalization)
        self.state = decision.state
        return decision
