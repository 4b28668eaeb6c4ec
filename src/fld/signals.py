"""Trajectory data model: ingestion, normalization, windowing and a
synthetic quasi-periodic corpus generator.

A trajectory is a (frames, dims) float64 array with a fixed step time.
Windows are (dims, H) segments whose columns run oldest to newest, so the
last column is the frame the window is anchored at. ``ItemPool`` is the one
item rule: an item is an anchor segment with its N successors, N+1 windows
cut from H+N consecutive frames. Training, gate calibration, prediction
evaluation, latent manifold export and quasi-constancy take their items
from it; the online gate cuts its window with the same ``segment_view``.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import as_int

# Default 27-dim state layout (base velocities, projected gravity, joint
# positions): index ranges per group used by evaluation reports.
EVAL_GROUPS_27 = {
    "velocities": (0, 6),
    "gravity": (6, 9),
    "joints": (9, 27),
}

DEFAULT_DT = 0.02


@dataclass
class Trajectory:
    frames: np.ndarray  # (n_frames, d)
    dt: float = DEFAULT_DT
    label: str | None = None

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError(f"frames must be (n, d), got shape {self.frames.shape}")
        if not 0 < self.dt < np.inf:  # NaN fails too
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("trajectory contains non-finite values")

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def dims(self) -> int:
        return self.frames.shape[1]


def check_corpus(corpus: list[Trajectory], dims: int, dt: float, owner: str) -> None:
    """Raise ValueError naming the first trajectory whose dims or dt differ
    from ``owner``'s (a model config or a checkpoint)."""
    for i, t in enumerate(corpus):
        if (t.dims, t.dt) != (dims, dt):
            raise ValueError(f"{owner} dims {dims}, dt {dt} != corpus dims {t.dims}, "
                             f"dt {t.dt} of trajectory {i}")


def load_csv(path: str | Path, d: int, dt: float = DEFAULT_DT,
             has_header: bool = False, label: str | None = None,
             min_frames: int | None = None) -> Trajectory:
    """Read one frame per row, ``d`` comma-separated columns.

    Rejects ragged rows and non-finite cells with the offending row index;
    warns (but still loads) when fewer than ``min_frames`` rows are present.
    """
    path = Path(path)
    rows: list[list[float]] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        for idx, row in enumerate(reader):
            if has_header and idx == 0:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != d:
                raise ValueError(f"{path}: row {idx} has {len(row)} columns, expected {d}")
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise ValueError(f"{path}: row {idx} has a non-numeric cell") from exc
            if not all(np.isfinite(values)):
                raise ValueError(f"{path}: row {idx} contains a non-finite value")
            rows.append(values)
    if min_frames is not None and len(rows) < min_frames:
        warnings.warn(f"{path}: only {len(rows)} frames, shorter than a window "
                      f"of {min_frames}; trajectory is unwindowable")
    return Trajectory(np.array(rows, dtype=np.float64).reshape(len(rows), d), dt=dt, label=label)


@dataclass
class NormalizationStats:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.ndim != 1 or self.mean.shape != self.std.shape:
            raise ValueError(f"normalization mean and std must be 1-D of one shape, "
                             f"got {self.mean.shape} and {self.std.shape}")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise ValueError("normalization contains non-finite values")
        if not np.all(self.std > 0):
            raise ValueError("normalization std must be positive")

    def check_dims(self, dims: int) -> None:
        """Raise ValueError unless these statistics are of a model config's ``dims``."""
        if self.mean.shape != (dims,):
            raise ValueError(f"normalization has {self.mean.size} dims, model config {dims}")

    def apply(self, frames: np.ndarray) -> np.ndarray:
        return (np.asarray(frames, dtype=np.float64) - self.mean) / self.std

    def invert(self, frames: np.ndarray) -> np.ndarray:
        return np.asarray(frames, dtype=np.float64) * self.std + self.mean

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "NormalizationStats":
        return cls(data["mean"], data["std"])


def fit_normalization(trajectories: list[Trajectory]) -> NormalizationStats:
    """Per-dimension z-score statistics pooled over all frames.

    Dimensions whose raw standard deviation is below 1e-6 get std = 1 so
    that constant channels normalize to zero instead of blowing up.
    """
    if not trajectories:
        raise ValueError("empty corpus")
    stacked = np.concatenate([t.frames for t in trajectories], axis=0)
    if stacked.shape[0] < 2:
        raise ValueError("need at least two frames to fit normalization")
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    std = np.where(std < 1e-6, 1.0, std)
    return NormalizationStats(mean, std)


def segment_view(frames: np.ndarray, window: int) -> np.ndarray:
    """All length-``window`` segments of ``frames`` as a zero-copy view.

    Shape (n_frames - window + 1, d, window); entry k covers frames
    [k, k + window) with columns ordered oldest to newest.
    """
    if frames.shape[0] < window:
        raise ValueError(f"trajectory of {frames.shape[0]} frames is shorter than "
                         f"window {window}")
    return np.lib.stride_tricks.sliding_window_view(frames, window, axis=0)


class ItemPool:
    """Every item of a corpus of normalized trajectories: anchor segment k
    with its ``horizon`` successors, (N+1, d, H), sliced without copying.

    ``anchors`` holds (view, first frame) per item; ``trajectories`` the
    corpus indices kept, those with at least window + horizon frames. This is
    the item rule of training, gate calibration, the online gate, prediction
    evaluation, latent manifold export and quasi-constancy.
    """

    def __init__(self, frames_list: list[np.ndarray], window: int, horizon: int):
        self.horizon = horizon
        self.views = []
        self.trajectories = []
        anchors = []
        for ti, frames in enumerate(frames_list):
            if frames.shape[0] < window + horizon:
                continue
            view = segment_view(frames, window)
            anchors.extend((len(self.views), wi) for wi in range(view.shape[0] - horizon))
            self.views.append(view)
            self.trajectories.append(ti)
        if not anchors:
            raise ValueError(f"corpus has no trajectory long enough for window "
                             f"{window} plus horizon {horizon}")
        self.anchors = np.array(anchors, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.anchors)

    def strided(self, anchor_stride: int) -> np.ndarray:
        """Ids of the items whose first frame is a multiple of ``anchor_stride``."""
        anchor_stride = as_int("anchor_stride", anchor_stride, 1)
        return np.flatnonzero(self.anchors[:, 1] % anchor_stride == 0)

    def item(self, k: int) -> np.ndarray:
        vi, wi = self.anchors[k]
        return self.views[vi][wi:wi + self.horizon + 1]

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """(B, N+1, d, H) copy of the items ``ids``."""
        return np.stack([self.item(k) for k in ids])


@dataclass
class SyntheticMotionSpec:
    """Parameter family for one synthetic quasi-periodic motion type."""

    base_frequency: float                 # Hz
    amplitudes: np.ndarray                # (d,) fundamental amplitude per dim
    phase_offsets: np.ndarray             # (d,) cycles
    means: np.ndarray                     # (d,)
    harmonics: list[float] = field(default_factory=lambda: [1.0])  # relative amps
    noise_std: float = 0.0
    frames: int = 1000
    dt: float = DEFAULT_DT
    seed: int = 0
    label: str | None = None

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        self.phase_offsets = np.asarray(self.phase_offsets, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        if not 0.0 < self.base_frequency < 0.5 / self.dt:
            raise ValueError(f"base frequency {self.base_frequency} Hz outside "
                             f"(0, Nyquist={0.5 / self.dt} Hz)")
        if self.noise_std < 0:
            raise ValueError("noise std must be >= 0")

    @property
    def dims(self) -> int:
        return self.amplitudes.size


def generate_synthetic(spec: SyntheticMotionSpec) -> Trajectory:
    """dim j, frame t: mean_j + sum_h amp_j*rel_h*sin(2*pi*(h*f*t*dt + off_j)) + noise."""
    t = np.arange(spec.frames)[:, None]  # (frames, 1)
    signal = np.broadcast_to(spec.means, (spec.frames, spec.dims)).copy()
    for h, rel in enumerate(spec.harmonics, start=1):
        phase = h * spec.base_frequency * t * spec.dt + spec.phase_offsets[None, :]
        signal += spec.amplitudes[None, :] * rel * np.sin(2.0 * np.pi * phase)
    if spec.noise_std > 0:
        rng = np.random.default_rng(spec.seed)
        signal = signal + rng.normal(scale=spec.noise_std, size=signal.shape)
    return Trajectory(signal, dt=spec.dt, label=spec.label)


def split_corpus(trajectories: list[Trajectory], train_fraction: float = 0.8,
                 seed: int = 0) -> tuple[list[Trajectory], list[Trajectory]]:
    """Split at trajectory granularity so validation windows never overlap
    training windows. Keeps at least one trajectory on the training side."""
    if not trajectories:
        raise ValueError("empty corpus")
    if not 0 < train_fraction <= 1:  # NaN fails too
        raise ValueError(f"train_fraction must be in (0, 1], got {train_fraction!r}")
    order = np.random.default_rng(seed).permutation(len(trajectories))
    n_train = max(1, int(round(train_fraction * len(trajectories))))
    train = [trajectories[i] for i in order[:n_train]]
    val = [trajectories[i] for i in order[n_train:]]
    return train, val
