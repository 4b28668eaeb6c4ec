"""Differentiable building blocks with hand-derived backward passes.

All arrays are float64. Layers are stateless between calls except for their
parameters (and batch-norm running statistics, which only a train-mode
forward mutates, and the kernel spectra a convolution derives from its
weights): ``forward`` returns ``(output, cache)`` and ``backward``
consumes the cache, accumulates parameter gradients and returns the input
gradient. Callers own the optimizer state and the train/eval mode choice.
"""

from __future__ import annotations

import numpy as np
import scipy.fft


def ensure_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {what}")
    return arr


class Parameter:
    """A named trainable array paired with its gradient accumulator."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv1d:
    """Same-padded 1D cross-correlation, stride 1, odd kernel.

    Computed in the frequency domain at the shortest fast real-FFT length
    m >= L + (k - 1)/2. Outputs 0..L-1 read only lags -pad..pad, so the
    input is transformed unpadded, the kernel's lags sit circularly around
    index 0, and no circular wrap reaches an output, a weight-gradient lag
    or an input-gradient sample. The kernel spectra are kept on the layer
    and rebuilt only when the weights differ, by value, from the copy they
    were built from: optimizers and tests write weights in place. This must
    match the naive sliding dot product to 1e-12 and the test suite holds
    it to that.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, name: str, bias: bool = True):
        if kernel_size % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {kernel_size}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        fan_in = in_channels * kernel_size
        self.weight = Parameter(f"{name}.weight",
                                _uniform_init(rng, (out_channels, in_channels, kernel_size), fan_in))
        # a bias is pointless (and makes gradients degenerate) when the layer
        # feeds straight into batch norm, so model code may drop it
        self.bias = Parameter(f"{name}.bias", _uniform_init(rng, (out_channels,), fan_in)) if bias else None
        # (m, weights the spectrum was built from, spectrum)
        self._spectrum: tuple[int, np.ndarray, np.ndarray] | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(f"expected input (batch, {self.in_channels}, length), got {x.shape}")
        return x

    def _kernel_spectrum(self, m: int) -> np.ndarray:
        """conj(rfft) of the kernel with lag s at index s mod m, as (bins, I, O)."""
        w = self.weight.value
        if self._spectrum is not None:
            built_m, built_from, w_spec = self._spectrum
            if built_m == m and np.array_equal(w, built_from):
                return w_spec
        pad = (self.kernel_size - 1) // 2
        lags = np.zeros((self.out_channels, self.in_channels, m))
        lags[:, :, :pad + 1] = w[:, :, pad:]
        lags[:, :, m - pad:] = w[:, :, :pad]
        w_spec = np.ascontiguousarray(np.conj(scipy.fft.rfft(lags, axis=-1)).transpose(2, 1, 0))
        self._spectrum = (m, w.copy(), w_spec)
        return w_spec

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        x = self._check_input(x)
        length = x.shape[-1]
        pad = (self.kernel_size - 1) // 2
        m = scipy.fft.next_fast_len(length + pad, real=True)
        w_spec = self._kernel_spectrum(m)
        x_hat = np.ascontiguousarray(scipy.fft.rfft(x, n=m, axis=-1).transpose(2, 0, 1))

        # y[b,o,t] = sum_{i,s} x[b,i,t+s] w[o,i,pad+s]  (cross-correlation)
        y_hat = x_hat @ w_spec
        y = scipy.fft.irfft(y_hat.transpose(1, 2, 0), n=m, axis=-1)[:, :, :length]
        if self.bias is not None:
            y = y + self.bias.value[None, :, None]
        ensure_finite(y, "conv1d output")
        cache = {"x_hat": x_hat, "w_spec": w_spec, "m": m, "length": length, "pad": pad}
        return y, cache

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        m, length, pad = cache["m"], cache["length"], cache["pad"]
        g = np.asarray(grad_out, dtype=np.float64)
        g_hat = scipy.fft.rfft(g, n=m, axis=-1).transpose(2, 0, 1)

        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2))

        # dW[o,i,pad+s] = sum_{b,t} g[b,o,t] x[b,i,t+s]: correlation over t,
        # lag s at index s mod m
        dw_hat = np.conj(g_hat).transpose(0, 2, 1) @ cache["x_hat"]
        lags = scipy.fft.irfft(dw_hat.transpose(1, 2, 0), n=m, axis=-1)
        self.weight.grad[:, :, pad:] += lags[:, :, :pad + 1]
        self.weight.grad[:, :, :pad] += lags[:, :, m - pad:]

        # dx[b,i,u] = sum_{o,s} g[b,o,u-s] w[o,i,pad+s]: convolution
        dx_hat = g_hat @ np.conj(cache["w_spec"]).transpose(0, 2, 1)
        return scipy.fft.irfft(dx_hat.transpose(1, 2, 0), n=m, axis=-1)[:, :, :length]


class BatchNorm1d:
    """Per-channel batch normalization over (batch,) or (batch, length).

    Accepts (B, C) or (B, C, L). Train mode uses biased batch variance for
    normalization, unbiased for the running estimate, and rejects batches
    of size 1 (the statistics would be degenerate). Eval mode applies the
    running statistics.
    """

    def __init__(self, num_features: int, name: str, eps: float = 1e-5, momentum: float = 0.1):
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(f"{name}.gamma", np.ones(num_features))
        self.beta = Parameter(f"{name}.beta", np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{self.gamma.name[:-6]}.running_mean": self.running_mean,
                f"{self.gamma.name[:-6]}.running_var": self.running_var}

    def _axes_and_shape(self, x: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if x.ndim == 2:
            return (0,), (1, self.num_features)
        if x.ndim == 3:
            return (0, 2), (1, self.num_features, 1)
        raise ValueError(f"expected 2D or 3D input, got shape {x.shape}")

    def forward(self, x: np.ndarray, mode: str) -> tuple[np.ndarray, dict]:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != self.num_features:
            raise ValueError(f"expected {self.num_features} channels, got {x.shape}")
        axes, bshape = self._axes_and_shape(x)
        if mode == "train":
            if x.shape[0] < 2:
                raise ValueError("batch normalization needs batch size >= 2 in train mode")
            n = int(np.prod([x.shape[a] for a in axes]))
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean *= 1.0 - self.momentum
            self.running_mean += self.momentum * mean
            self.running_var *= 1.0 - self.momentum
            self.running_var += self.momentum * var * n / max(n - 1, 1)
        elif mode == "eval":
            mean, var = self.running_mean, self.running_var
        else:
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        std = np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(bshape)) / std.reshape(bshape)
        y = self.gamma.value.reshape(bshape) * x_hat + self.beta.value.reshape(bshape)
        ensure_finite(y, "batchnorm output")
        cache = {"x_hat": x_hat, "std": std, "axes": axes, "bshape": bshape,
                 "mode": mode}
        return y, cache

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        g = np.asarray(grad_out, dtype=np.float64)
        axes, bshape = cache["axes"], cache["bshape"]
        x_hat, std = cache["x_hat"], cache["std"]
        self.beta.grad += g.sum(axis=axes)
        self.gamma.grad += (g * x_hat).sum(axis=axes)
        gamma_over_std = (self.gamma.value / std).reshape(bshape)
        if cache["mode"] == "eval":
            return g * gamma_over_std
        g_mean = g.mean(axis=axes).reshape(bshape)
        gx_mean = (g * x_hat).mean(axis=axes).reshape(bshape)
        return gamma_over_std * (g - g_mean - x_hat * gx_mean)


class Linear:
    """Affine map y = x W^T + b for x of shape (batch, in_features)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, name: str):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(f"{name}.weight",
                                _uniform_init(rng, (out_features, in_features), in_features))
        self.bias = Parameter(f"{name}.bias", _uniform_init(rng, (out_features,), in_features))

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected input (batch, {self.in_features}), got {x.shape}")
        y = x @ self.weight.value.T + self.bias.value
        ensure_finite(y, "linear output")
        return y, {"x": x}

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        g = np.asarray(grad_out, dtype=np.float64)
        self.weight.grad += g.T @ cache["x"]
        self.bias.grad += g.sum(axis=0)
        return g @ self.weight.value


class PerChannelLinear:
    """Independent affine map per channel: (B, C, H) -> (B, C, O)."""

    def __init__(self, channels: int, in_features: int, out_features: int,
                 rng: np.random.Generator, name: str, bias: bool = True):
        self.channels = channels
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(f"{name}.weight",
                                _uniform_init(rng, (channels, out_features, in_features), in_features))
        self.bias = Parameter(f"{name}.bias",
                              _uniform_init(rng, (channels, out_features), in_features)) if bias else None

    def parameters(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.channels or x.shape[2] != self.in_features:
            raise ValueError(
                f"expected input (batch, {self.channels}, {self.in_features}), got {x.shape}")
        y = np.einsum("bch,coh->bco", x, self.weight.value)
        if self.bias is not None:
            y = y + self.bias.value
        ensure_finite(y, "per-channel linear output")
        return y, {"x": x}

    def backward(self, grad_out: np.ndarray, cache: dict) -> np.ndarray:
        g = np.asarray(grad_out, dtype=np.float64)
        self.weight.grad += np.einsum("bco,bch->coh", g, cache["x"])
        if self.bias is not None:
            self.bias.grad += g.sum(axis=0)
        return np.einsum("bco,coh->bch", g, self.weight.value)


def elu(x: np.ndarray) -> tuple[np.ndarray, dict]:
    """ELU with alpha = 1: x for x > 0, exp(x) - 1 otherwise."""
    x = np.asarray(x, dtype=np.float64)
    neg = x <= 0.0
    y = np.where(neg, np.expm1(np.minimum(x, 0.0)), x)
    return y, {"neg": neg, "y": y}


def elu_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    # d elu/dx = exp(x) = y + 1 on the negative branch
    return grad_out * np.where(cache["neg"], cache["y"] + 1.0, 1.0)


def relu(x: np.ndarray) -> tuple[np.ndarray, dict]:
    x = np.asarray(x, dtype=np.float64)
    pos = x > 0.0
    return np.where(pos, x, 0.0), {"pos": pos}


def relu_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    return grad_out * cache["pos"]


def softplus(x: np.ndarray) -> tuple[np.ndarray, dict]:
    x = np.asarray(x, dtype=np.float64)
    return np.logaddexp(0.0, x), {"x": x}


def softplus_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    x = cache["x"]
    pos = x >= 0.0
    sig = np.empty_like(x)
    sig[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    sig[~pos] = ex / (1.0 + ex)
    return grad_out * sig


def atan2_phase(sy: np.ndarray, sx: np.ndarray) -> tuple[np.ndarray, dict]:
    """Two-argument phase in cycles, range [-0.5, 0.5)."""
    sy = np.asarray(sy, dtype=np.float64)
    sx = np.asarray(sx, dtype=np.float64)
    r2 = sx * sx + sy * sy
    if np.any(r2 == 0.0):
        raise ValueError("phase undefined: (sx, sy) == (0, 0)")
    phi = np.arctan2(sy, sx) / (2.0 * np.pi)
    phi = np.where(phi >= 0.5, phi - 1.0, phi)
    return phi, {"sx": sx, "sy": sy, "r2": r2}


def atan2_phase_backward(grad_out: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """Returns (grad_sy, grad_sx)."""
    denom = 2.0 * np.pi * cache["r2"]
    return grad_out * cache["sx"] / denom, grad_out * (-cache["sy"]) / denom
