"""Plain float64 reference for the FLD propagation loss.

Written from the model's definition, not from its code: it reads only the
named arrays a model publishes (trainable values and batch-norm running
statistics, as in ``FLDModel.state_arrays()`` or a checkpoint) and the
config dict, and imports nothing from ``fld``.

* Conv1d is the direct sliding dot product with same padding.
* Batch norm uses batch statistics (biased variance) in train mode and the
  running statistics in eval mode, eps 1e-5.
* Frequency, amplitude and offset come from a direct DFT; phase is atan2
  of the batch-normed per-channel linear shift, in cycles.
* The latent curve of step i is a*sin(2*pi*(f*(T + i*dt) + phi)) + b with
  T = (-(H-1)*dt, ..., 0).
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
POWER_FLOOR = 1e-12
_CHUNK_ROWS = 8192  # rows of the im2col matrix built at a time


def conv1d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """y[b,o,t] = sum_{i,k} xpad[b,i,t+k] * w[o,i,k] (+ bias[o])."""
    batch, in_ch, length = x.shape
    out_ch, _, k = weight.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=-1)  # (B, I, L, K)
    w2 = weight.reshape(out_ch, in_ch * k).T
    y = np.empty((batch, out_ch, length))
    step = max(1, _CHUNK_ROWS // length)
    for start in range(0, batch, step):
        win = windows[start:start + step].transpose(0, 2, 1, 3)
        rows = win.reshape(-1, in_ch * k) @ w2  # (b*L, O)
        y[start:start + step] = rows.reshape(-1, length, out_ch).transpose(0, 2, 1)
    if bias is not None:
        y += bias[None, :, None]
    return y


def batchnorm(x: np.ndarray, arrays: dict, name: str, mode: str) -> np.ndarray:
    axes = (0,) if x.ndim == 2 else (0, 2)
    shape = (1, -1) if x.ndim == 2 else (1, -1, 1)
    if mode == "train":
        mean, var = x.mean(axis=axes), x.var(axis=axes)
    elif mode == "eval":
        mean, var = arrays[f"{name}.running_mean"], arrays[f"{name}.running_var"]
    else:
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    normed = (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + BN_EPS)
    return arrays[f"{name}.gamma"].reshape(shape) * normed + arrays[f"{name}.beta"].reshape(shape)


def elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))


def encode(arrays: dict, x: np.ndarray, mode: str) -> np.ndarray:
    for i in range(3):
        x = elu(batchnorm(conv1d(x, arrays[f"enc.conv{i}.weight"]), arrays, f"enc.bn{i}", mode))
    return x


def decode(arrays: dict, config: dict, x: np.ndarray, mode: str) -> np.ndarray:
    for i in range(3):
        x = conv1d(x, arrays[f"dec.conv{i}.weight"], arrays.get(f"dec.conv{i}.bias"))
        if i < 2 or config["final_activation"]:
            x = elu(batchnorm(x, arrays, f"dec.bn{i}", mode))
    return x


def parameterize(arrays: dict, config: dict, z: np.ndarray, mode: str):
    """(phi, f, a, b) per latent channel, each (B, c)."""
    batch, c, h = z.shape
    dt = config["dt"]
    t = np.arange(h)
    j = np.arange(h // 2 + 1)
    angle = 2.0 * np.pi * np.outer(j, t) / h
    re = z @ np.cos(angle).T
    im = -(z @ np.sin(angle).T)
    power = re[..., 1:] ** 2 + im[..., 1:] ** 2
    total = power.sum(axis=-1)
    live = total > POWER_FLOOR
    bin_freq = j[1:] / (h * dt)
    freq = np.where(live, (power @ bin_freq) / np.where(live, total, 1.0), 0.0)
    amp = (2.0 / h) * np.sqrt(total)
    offset = re[..., 0] / h

    shift = np.einsum("bch,coh->bco", z, arrays["phase.linear.weight"])
    normed = batchnorm(shift.reshape(batch, 2 * c), arrays, "phase.bn", mode).reshape(batch, c, 2)
    phi = np.arctan2(normed[..., 1], normed[..., 0]) / (2.0 * np.pi)
    return phi, freq, amp, offset


def reconstruct(config: dict, phi, freq, amp, offset, steps: int) -> np.ndarray:
    """Latent curves (B, steps + 1, c, H) for propagation steps 0..steps."""
    h, dt = config["window"], config["dt"]
    times = (np.arange(h) - (h - 1)) * dt
    i = np.arange(steps + 1)[:, None] * dt
    angle = 2.0 * np.pi * (freq[:, None, :, None] * (times[None, :] + i)[None, :, None, :]
                           + phi[:, None, :, None])
    return amp[:, None, :, None] * np.sin(angle) + offset[:, None, :, None]


def propagation_loss(arrays: dict, config: dict, items: np.ndarray, mode: str,
                     anchor: np.ndarray | None = None, horizon: int | None = None,
                     alpha: float | None = None) -> tuple[float, np.ndarray]:
    """sum_i alpha^i * mean((decoded i-step prediction - items[:, i])^2).

    ``items`` is (B, N+1, d, H); the anchor defaults to slot 0.
    """
    items = np.asarray(items, dtype=np.float64)
    batch = items.shape[0]
    n = items.shape[1] - 1 if horizon is None else horizon
    decay = config["alpha"] if alpha is None else alpha
    c, d, h = config["channels"], config["dims"], config["window"]
    z = encode(arrays, items[:, 0] if anchor is None else anchor, mode)
    zhat = reconstruct(config, *parameterize(arrays, config, z, mode), n)
    shat = decode(arrays, config, zhat.reshape(batch * (n + 1), c, h), mode)
    shat = shat.reshape(batch, n + 1, d, h)
    per_horizon = np.mean((shat - items[:, :n + 1]) ** 2, axis=(0, 2, 3))
    return float(np.sum(decay ** np.arange(n + 1) * per_horizon)), per_horizon


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)
