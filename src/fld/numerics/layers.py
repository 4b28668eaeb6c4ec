"""Differentiable building blocks with hand-derived backward passes.

All arrays are float64. Layers are stateless between calls except for their
parameters (and batch-norm running statistics, which only a train-mode
forward mutates, and the kernel spectra a convolution derives from its
weights): ``forward`` returns ``(output, cache)`` and ``backward``
consumes the cache, accumulates parameter gradients and returns the input
gradient. Callers own the optimizer state and the train/eval mode choice.

The per-element passes make only the full-size arrays their math needs and
keep no buffer between calls: train-mode batch norm caches x_hat only, eval
batch norm is one per-channel scale and shift, and ELU caches its output
only. A convolution writes each input or gradient spectrum once, straight
into the (bins, B, C) array its batched matmul reads: ``numpy.fft.rfft``
takes that transposed view as ``out=``, which ``scipy.fft.rfft`` cannot, so
the forward transforms use numpy and make no padded or transposed copy.
The inverse transforms stay on ``scipy.fft.irfft``, which is faster than
numpy's on the transposed spectra they read.
"""

from __future__ import annotations

import numpy as np
import scipy.fft


def ensure_finite(arr: np.ndarray, what: str) -> np.ndarray:
    # NaN and +-inf reach the min or the max, so two reductions decide it
    # without a full-size bool array
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
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


def _rfft_bins_first(a: np.ndarray, m: int) -> np.ndarray:
    """rfft of (B, C, L) at length m, written once into a (bins, B, C) array."""
    spec = np.empty((m // 2 + 1, a.shape[0], a.shape[1]), dtype=np.complex128)
    np.fft.rfft(a, n=m, axis=-1, out=spec.transpose(1, 2, 0))
    return spec


class Conv1d:
    """Same-padded 1D cross-correlation, stride 1, odd kernel.

    Computed in the frequency domain at the shortest fast real-FFT length
    m >= L + (k - 1)/2. Outputs 0..L-1 read only lags -pad..pad, so the
    input is transformed unpadded, the kernel's lags sit circularly around
    index 0, and no circular wrap reaches an output, a weight-gradient lag
    or an input-gradient sample. The kernel spectra are kept on the layer
    and rebuilt only when the weights differ, by value, from the copy they
    were built from: optimizers and tests write weights in place. Input and
    gradient spectra are written by ``numpy.fft.rfft``, which accepts the
    transposed ``out=`` view, straight into the (bins, B, C) layout the
    batched matmuls read; the inverse transforms use ``scipy.fft.irfft``,
    which reads those spectra faster than numpy's. This must match the
    naive sliding dot product to 1e-12 and the test suite holds it to that.
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
        x_hat = _rfft_bins_first(x, m)

        # y[b,o,t] = sum_{i,s} x[b,i,t+s] w[o,i,pad+s]  (cross-correlation)
        y_hat = x_hat @ w_spec
        y = scipy.fft.irfft(y_hat.transpose(1, 2, 0), n=m, axis=-1)[:, :, :length]
        if self.bias is not None:
            y += self.bias.value[None, :, None]
        ensure_finite(y, "conv1d output")
        cache = {"x_hat": x_hat, "w_spec": w_spec, "m": m, "length": length, "pad": pad}
        return y, cache

    def backward(self, g: np.ndarray, cache: dict) -> np.ndarray:
        m, length, pad = cache["m"], cache["length"], cache["pad"]
        g_hat = _rfft_bins_first(g, m)

        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2))

        # dx[b,i,u] = sum_{o,s} g[b,o,u-s] w[o,i,pad+s]: convolution
        dx_hat = g_hat @ np.conj(cache["w_spec"]).transpose(0, 2, 1)
        dx = scipy.fft.irfft(dx_hat.transpose(1, 2, 0), n=m, axis=-1)[:, :, :length]

        # dW[o,i,pad+s] = sum_{b,t} g[b,o,t] x[b,i,t+s]: correlation over t,
        # lag s at index s mod m; g_hat is not read again, so conjugate it in place
        dw_hat = np.conj(g_hat, out=g_hat).transpose(0, 2, 1) @ cache["x_hat"]
        lags = scipy.fft.irfft(dw_hat.transpose(1, 2, 0), n=m, axis=-1)
        self.weight.grad[:, :, pad:] += lags[:, :, :pad + 1]
        self.weight.grad[:, :, :pad] += lags[:, :, m - pad:]
        return dx


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel sum of a * b over (B, C) or (B, C, L), without the product array."""
    return np.einsum("bc,bc->c" if a.ndim == 2 else "bcl,bcl->c", a, b)


class BatchNorm1d:
    """Per-channel batch normalization over (batch,) or (batch, length).

    Accepts (B, C) or (B, C, L). Train mode uses biased batch variance for
    normalization, unbiased for the running estimate, and rejects batches
    of size 1 (the statistics would be degenerate). It centres the input
    once, takes the variance from the centred array and divides it in place
    into x_hat, and its cache holds x_hat only: the input is often a view
    that would keep a convolution's larger transform buffer alive. Eval mode
    applies the running statistics as one per-channel scale and shift,
    x * (gamma / std) + (beta - mean * gamma / std); its backward rebuilds
    x_hat from the input only when it runs.
    """

    def __init__(self, num_features: int, name: str, eps: float = 1e-5, momentum: float = 0.1):
        self.num_features = num_features
        self.name = name
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(f"{name}.gamma", np.ones(num_features))
        self.beta = Parameter(f"{name}.beta", np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.running_mean": self.running_mean,
                f"{self.name}.running_var": self.running_var}

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
            n = x.size // self.num_features
            mean = x.mean(axis=axes)
            x_hat = x - mean.reshape(bshape)
            var = _channel_dot(x_hat, x_hat) / n
            self.running_mean *= 1.0 - self.momentum
            self.running_mean += self.momentum * mean
            self.running_var *= 1.0 - self.momentum
            self.running_var += self.momentum * var * n / max(n - 1, 1)
            std = np.sqrt(var + self.eps)
            x_hat /= std.reshape(bshape)
            y = x_hat * self.gamma.value.reshape(bshape)
            y += self.beta.value.reshape(bshape)
            cache = {"x_hat": x_hat}
        elif mode == "eval":
            std = np.sqrt(self.running_var + self.eps)
            scale = self.gamma.value / std
            y = x * scale.reshape(bshape)
            y += (self.beta.value - self.running_mean * scale).reshape(bshape)
            cache = {"x": x, "mean": self.running_mean.copy()}
        else:
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        ensure_finite(y, "batchnorm output")
        cache.update(std=std, axes=axes, bshape=bshape, mode=mode)
        return y, cache

    def backward(self, g: np.ndarray, cache: dict) -> np.ndarray:
        axes, bshape, std = cache["axes"], cache["bshape"], cache["std"]
        if cache["mode"] == "eval":
            x_hat = (cache["x"] - cache["mean"].reshape(bshape)) / std.reshape(bshape)
        else:
            x_hat = cache["x_hat"]
        sum_g = g.sum(axis=axes)
        sum_gx = _channel_dot(g, x_hat)
        self.beta.grad += sum_g
        self.gamma.grad += sum_gx
        gamma_over_std = (self.gamma.value / std).reshape(bshape)
        if cache["mode"] == "eval":
            return g * gamma_over_std
        # gamma/std * (g - mean(g) - x_hat * mean(g * x_hat)), in one buffer
        n = g.size // self.num_features
        dx = x_hat * (-sum_gx / n).reshape(bshape)
        dx += g
        dx -= (sum_g / n).reshape(bshape)
        dx *= gamma_over_std
        return dx


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

    def backward(self, g: np.ndarray, cache: dict) -> np.ndarray:
        self.weight.grad += g.T @ cache["x"]
        self.bias.grad += g.sum(axis=0)
        return g @ self.weight.value


class PerChannelLinear:
    """Independent linear map per channel, no bias: (B, C, H) -> (B, C, O)."""

    def __init__(self, channels: int, in_features: int, out_features: int,
                 rng: np.random.Generator, name: str):
        self.channels = channels
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(f"{name}.weight",
                                _uniform_init(rng, (channels, out_features, in_features), in_features))

    def parameters(self) -> list[Parameter]:
        return [self.weight]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.channels or x.shape[2] != self.in_features:
            raise ValueError(
                f"expected input (batch, {self.channels}, {self.in_features}), got {x.shape}")
        y = np.einsum("bch,coh->bco", x, self.weight.value)
        ensure_finite(y, "per-channel linear output")
        return y, {"x": x}

    def backward(self, g: np.ndarray, cache: dict) -> np.ndarray:
        self.weight.grad += np.einsum("bco,bch->coh", g, cache["x"])
        return np.einsum("bco,coh->bch", g, self.weight.value)


def elu(x: np.ndarray) -> tuple[np.ndarray, dict]:
    """ELU with alpha = 1: x for x > 0, exp(x) - 1 otherwise.

    Computed as expm1(min(x, 0)) + max(x, 0): one term is zero at every
    point, so this is exact, and it needs no branch mask. The cache holds
    the output only, since x <= 0 exactly where y <= 0.
    """
    y = np.maximum(x, 0.0)
    neg_part = np.minimum(x, 0.0)
    y += np.expm1(neg_part, out=neg_part)
    return y, {"y": y}


def elu_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    # d elu/dx = exp(x) = y + 1 where y <= 0, and 1 where y > 0
    d = np.minimum(cache["y"], 0.0)
    d += 1.0
    d *= grad_out
    return d


def relu(x: np.ndarray) -> tuple[np.ndarray, dict]:
    pos = x > 0.0
    return np.where(pos, x, 0.0), {"pos": pos}


def relu_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    return grad_out * cache["pos"]


def softplus(x: np.ndarray) -> tuple[np.ndarray, dict]:
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
