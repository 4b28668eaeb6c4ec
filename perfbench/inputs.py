"""Seeded inputs: synthetic quasi-periodic corpora and the gate stream.

Everything is drawn from ``numpy.random.default_rng(seed)`` in a fixed
order, so the same seed gives the same inputs. A motion family fixes a
base frequency, per-dimension amplitudes, phase offsets and means, and
three harmonics; its trajectories jitter the frequency by up to 3 %, shift
the phase and draw their own noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from fld import signals
from fld.signals import Trajectory

DT = 0.02                       # seconds per frame: 50 Hz
PER_FAMILY = 2                  # trajectories per family in the multi-family corpus
NOISE_STD = 0.02
FREQ_JITTER = 0.03
GATE_TRAIN_MINI_BATCHES = 1     # optimizer steps that train the gate's checkpoint
GATE_QUANTILE = 0.99
CALIB_QUANTILE = 0.99
STREAM_GAP = 2                  # None frames at the end of a stream pass


@dataclass(frozen=True)
class Scale:
    """Model configuration and input sizes of the benchmark."""

    dims: int = 27
    channels: int = 8
    window: int = 51
    horizon: int = 50
    hidden: int = 64
    batch: int = 16
    # train_paper, calibrate_corpus: families x PER_FAMILY trajectories of corpus_frames frames
    families: int = 4
    corpus_frames: int = 300
    train_mini_batches: int = 2     # optimizer steps per train() call
    # gate_stream
    gate_corpus: int = 6            # family-A trajectories for training and calibration
    gate_calib_stride: int = 30
    stream_in: int = 560            # in-distribution frames per pass
    stream_oof: int = 40            # out-of-family frames per pass
    gate_warmup_frames: int = 105
    # calibrate_corpus
    calib_stride: int = 50
    # correctness checks
    oracle_items: int = 4
    fd_items: int = 4

    def model_config(self) -> dict:
        return {"dims": self.dims, "channels": self.channels, "window": self.window,
                "horizon": self.horizon, "hidden": self.hidden, "dt": DT}


PAPER = Scale()


def make_family(rng: np.random.Generator, dims: int, base_frequency: float,
                amplitude: float) -> dict:
    return {
        "base_frequency": base_frequency,
        "amplitudes": amplitude * rng.uniform(0.5, 1.5, dims),
        "phase_offsets": rng.uniform(0.0, 1.0, dims),
        "means": rng.normal(0.0, 1.0, dims),
        "harmonics": [1.0, float(rng.uniform(0.2, 0.4)), float(rng.uniform(0.05, 0.15))],
    }


def family_trajectory(rng: np.random.Generator, family: dict, frames: int,
                      label: str) -> Trajectory:
    spec = signals.SyntheticMotionSpec(
        base_frequency=family["base_frequency"] * (1.0 + rng.uniform(-FREQ_JITTER, FREQ_JITTER)),
        amplitudes=family["amplitudes"],
        phase_offsets=family["phase_offsets"] + rng.uniform(0.0, 1.0),
        means=family["means"],
        harmonics=family["harmonics"],
        noise_std=NOISE_STD,
        frames=frames,
        dt=DT,
        seed=int(rng.integers(2 ** 31)),
        label=label,
    )
    return signals.generate_synthetic(spec)


def multi_family_corpus(seed: int, scale: Scale) -> list[Trajectory]:
    """``families`` motion types at base frequencies spread over 0.8-2.0 Hz."""
    rng = np.random.default_rng(seed)
    corpus = []
    for fi, base in enumerate(np.linspace(0.8, 2.0, scale.families)):
        family = make_family(rng, scale.dims, float(base) * rng.uniform(0.95, 1.05), 1.0)
        corpus += [family_trajectory(rng, family, scale.corpus_frames, f"family{fi}")
                   for _ in range(PER_FAMILY)]
    return corpus


@dataclass
class GateInputs:
    corpus: list[Trajectory]        # family A: training and calibration corpus
    stream: list                    # one pass: (d,) frames and None gaps
    in_range: tuple[int, int]       # frame indices of the sections within a pass
    oof_range: tuple[int, int]


def gate_inputs(seed: int, scale: Scale) -> GateInputs:
    """Family A trains and calibrates the gate. A pass of the stream is a
    fresh family-A trajectory, then family B (1.6-1.9x the frequency, 2.5x
    the amplitude, other means), then a gap of None frames."""
    rng = np.random.default_rng(seed)
    family_a = make_family(rng, scale.dims, float(rng.uniform(1.0, 1.4)), 1.0)
    family_b = make_family(rng, scale.dims,
                           family_a["base_frequency"] * float(rng.uniform(1.6, 1.9)), 2.5)
    corpus = [family_trajectory(rng, family_a, scale.corpus_frames, "A")
              for _ in range(scale.gate_corpus)]
    in_frames = family_trajectory(rng, family_a, scale.stream_in, "A").frames
    oof_frames = family_trajectory(rng, family_b, scale.stream_oof, "B").frames
    stream = list(in_frames) + list(oof_frames) + [None] * STREAM_GAP
    a, b = scale.stream_in, scale.stream_in + scale.stream_oof
    return GateInputs(corpus, stream, (0, a), (a, b))
