"""Latent propagation, autoregressive synthesis, parameterization
interpolation, and the online tracking-target gate with fallback.

The gate consumes a stream of trajectory segments through an input buffer
of horizon + 1 entries (so every prediction step 0..N has ground truth).
Each step it either re-encodes the latent state from fresh input (accepted),
or falls back to propagating the latent dynamics (rejected / no input).
The emitted tracking frame is always decoded from the state that results,
so under rejection the emitted stream is the synthesis rollout of the
propagated state, to rounding.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import ModelCheckpoint, build_fld_model
from .model import FLDModel, wrap_phase
from .signals import Trajectory, segment_view
from .stats import quantile_midpoint


@dataclass
class LatentRollState:
    """Phase (cycles, wrapped) plus the frozen parameterization of a roll."""

    phi: np.ndarray        # (c,)
    freq: np.ndarray       # (c,) Hz
    amp: np.ndarray        # (c,)
    offset: np.ndarray     # (c,)
    step: int = 0

    def __post_init__(self):
        self.phi = wrap_phase(np.asarray(self.phi, dtype=np.float64))
        self.freq = np.asarray(self.freq, dtype=np.float64)
        self.amp = np.asarray(self.amp, dtype=np.float64)
        self.offset = np.asarray(self.offset, dtype=np.float64)

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.freq, self.amp, self.offset])


def propagate(state: LatentRollState, dt: float) -> LatentRollState:
    """One latent-dynamics step: theta unchanged, phi advanced by f*dt."""
    return LatentRollState(phi=wrap_phase(state.phi + state.freq * dt),
                           freq=state.freq, amp=state.amp, offset=state.offset,
                           step=state.step + 1)


def encode_state(model: FLDModel, segment: np.ndarray) -> LatentRollState:
    """Latent state and parameterization of one normalized segment."""
    z, _ = model.encode(segment[None] if segment.ndim == 2 else segment, "eval")
    phi, f, a, b, _ = model.parameterize(z, "eval")
    return LatentRollState(phi=phi[0], freq=f[0], amp=a[0], offset=b[0])


def decode_state_frame(model: FLDModel, state: LatentRollState,
                       normalization) -> tuple[np.ndarray, np.ndarray]:
    """Decode the segment for a latent state; returns (normalized segment
    (d, H), denormalized newest frame (d,))."""
    zhat, _ = model.reconstruct_latent(state.phi[None], state.freq[None],
                                       state.amp[None], state.offset[None])
    seg, _ = model.decode(zhat[:, 0], "eval")
    frame = normalization.invert(seg[0, :, -1])
    return seg[0], frame


def synthesize(checkpoint: ModelCheckpoint, state: LatentRollState,
               steps: int) -> Trajectory:
    """Autoregressive rollout: decode the current state, emit its newest
    frame (denormalized), then propagate; repeated ``steps`` times.

    The parameterization is constant along the roll, so all steps are
    decoded as one batch. Per-step decoding agrees to rounding (about 1e-15),
    not bitwise: batches of different sizes take different BLAS kernels.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    model = build_fld_model(checkpoint, "synthesis")
    dt = model.config.dt
    phis = wrap_phase(state.phi[None, :] + np.arange(steps)[:, None] * (state.freq * dt)[None, :])
    zhat, _ = model.reconstruct_latent(phis, np.tile(state.freq, (steps, 1)),
                                       np.tile(state.amp, (steps, 1)),
                                       np.tile(state.offset, (steps, 1)))
    segs, _ = model.decode(zhat[:, 0], "eval")
    frames = checkpoint.normalization.invert(segs[:, :, -1])
    return Trajectory(frames, dt=dt)


def interpolate_theta(src: LatentRollState, dst: LatentRollState, steps: int,
                      dt: float) -> list[LatentRollState]:
    """Componentwise linear blend between two parameterizations.

    Returns states 0..steps with blend factor k/steps; phase starts at the
    source and advances by the blended frequency at each step, so the
    transition stays temporally coherent.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
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


class InputBuffer:
    """Ring of the most recent horizon+1 segments, oldest first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque[np.ndarray] = deque(maxlen=capacity)

    def push(self, segment: np.ndarray) -> None:
        self._ring.append(np.asarray(segment, dtype=np.float64))

    def clear(self) -> None:
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def full(self) -> bool:
        return len(self._ring) == self.capacity

    @property
    def empty(self) -> bool:
        return len(self._ring) == 0

    def stacked(self) -> np.ndarray:
        """(capacity, d, H), oldest to newest."""
        return np.stack(list(self._ring), axis=0)


@dataclass
class GateConfig:
    epsilon: float
    quantile: float = 0.99
    corpus_hash: str = ""
    anchor_count: int = 0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    def to_dict(self) -> dict:
        return {"epsilon": self.epsilon, "quantile": self.quantile,
                "corpus_hash": self.corpus_hash, "anchor_count": self.anchor_count}

    @classmethod
    def from_dict(cls, data: dict) -> "GateConfig":
        return cls(**data)


@dataclass
class GateDecision:
    verdict: str                      # accepted | rejected | no_input
    loss: float | None
    state: LatentRollState
    target_segment: np.ndarray        # normalized (d, H)
    target_frame: np.ndarray          # denormalized (d,)


def anchored_gate_loss(model: FLDModel, segments: np.ndarray) -> float:
    """Propagation loss of the earliest segment's encoding scored against
    the whole stack: the exact training loss with the earliest segment as
    anchor (shared code path)."""
    total, _ = model.loss_and_grads(segments[None], mode="eval", want_grads=False,
                                    anchor=segments[None, 0])
    return total


def calibrate_threshold(checkpoint: ModelCheckpoint, corpus: list[Trajectory],
                        quantile: float = 0.99, anchor_stride: int = 5) -> GateConfig:
    """Gate threshold: the given quantile (midpoint convention) of the
    per-anchor propagation loss over the training corpus."""
    model = build_fld_model(checkpoint, "gate calibration")
    cfg = model.config
    n = cfg.horizon
    losses = []
    hasher = hashlib.sha256()
    for traj in corpus:
        if len(traj) < cfg.window + n:
            continue
        frames = checkpoint.normalization.apply(traj.frames)
        hasher.update(np.ascontiguousarray(traj.frames).tobytes())
        view = segment_view(frames, cfg.window)
        for wi in range(0, view.shape[0] - n, anchor_stride):
            losses.append(anchored_gate_loss(model, view[wi:wi + n + 1]))
    if not losses:
        raise ValueError("corpus has no anchor long enough to calibrate the gate")
    eps = quantile_midpoint(np.array(losses), quantile)
    return GateConfig(epsilon=eps, quantile=quantile,
                      corpus_hash=hasher.hexdigest()[:16],
                      anchor_count=len(losses))


def gate_step(buffer: InputBuffer, state: LatentRollState, gate: GateConfig,
              model: FLDModel, normalization) -> GateDecision:
    """One decision step of the online tracking gate.

    Empty buffer: no input, fall back to propagation. Full buffer: score the
    earliest segment's propagation against the buffered stream; accept (and
    re-encode phase and parameterization from the newest segment) only when
    the loss is within the calibrated threshold. Partially filled buffers
    are a caller error: wait for warm-up.
    """
    if not (buffer.empty or buffer.full):
        raise ValueError(f"gate needs an empty or full buffer, got "
                         f"{len(buffer)}/{buffer.capacity} segments")
    if buffer.empty:
        new_state = propagate(state, model.config.dt)
        verdict, loss = "no_input", None
    else:
        segments = buffer.stacked()
        loss = anchored_gate_loss(model, segments)
        if loss <= gate.epsilon:
            new_state = encode_state(model, segments[-1])
            new_state.step = state.step + 1
            verdict = "accepted"
        else:
            new_state = propagate(state, model.config.dt)
            verdict = "rejected"
    segment, frame = decode_state_frame(model, new_state, normalization)
    return GateDecision(verdict=verdict, loss=loss, state=new_state,
                        target_segment=segment, target_frame=frame)


class GateRunner:
    """Frame-by-frame driver: accumulates raw frames, forms normalized
    segments, manages the warm-up, and emits one decision per step once
    segments exist. Until the input buffer is full, decisions are
    ``no_input`` fallbacks."""

    def __init__(self, checkpoint: ModelCheckpoint, gate: GateConfig,
                 initial_state: LatentRollState | None = None):
        self.model = build_fld_model(checkpoint, "the gate")
        self.normalization = checkpoint.normalization
        self.gate = gate
        cfg = self.model.config
        self.buffer = InputBuffer(cfg.horizon + 1)
        self._frames: deque[np.ndarray] = deque(maxlen=cfg.window)
        if initial_state is None:
            c = cfg.channels
            initial_state = LatentRollState(np.zeros(c), np.zeros(c),
                                            np.zeros(c), np.zeros(c))
        self.state = initial_state

    def step(self, frame: np.ndarray | None) -> GateDecision:
        """Advance one step with a raw (denormalized) frame, or None for
        "no user input this step"."""
        if frame is None:
            self.buffer.clear()
            self._frames.clear()
        else:
            self._frames.append(self.normalization.apply(np.asarray(frame, dtype=np.float64)))
            if len(self._frames) == self.model.config.window:
                self.buffer.push(np.stack(self._frames, axis=1))
        if self.buffer.full:
            decision = gate_step(self.buffer, self.state, self.gate,
                                 self.model, self.normalization)
        else:
            # warm-up: treat as absent input rather than scoring a partial buffer
            new_state = propagate(self.state, self.model.config.dt)
            segment, out_frame = decode_state_frame(self.model, new_state,
                                                    self.normalization)
            decision = GateDecision("no_input", None, new_state, segment, out_frame)
        self.state = decision.state
        return decision
