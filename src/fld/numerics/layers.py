"""Differentiable building blocks with hand-derived backward passes.

All arrays are float64. The conv networks carry their activations
time-major, as (L, C, B) arrays: the channel axis is axis 1 as in the
segment-first (B, C, L) layout, and the batch is the contiguous inner axis,
so each product of a convolution runs over all segments at once. Batch
norm takes that layout only, a (B, C) batch as the (1, C, B) view
``x.T[None]``, and has a fixed eps and momentum. Layers are stateless
between calls except for their parameters (and batch-norm running
statistics, which only a train-mode forward mutates, and the kernel blocks
a convolution derives from immutable weights): ``forward`` returns
``(output, cache)`` and ``backward`` accumulates parameter gradients and
returns the input gradient. A cache feeds exactly one backward and is
consumed by it: a convolution removes its input spectrum from the cache
once dW has read it, and a second backward on that cache raises. The block
walk in ``fld.model`` drops each batch-norm or activation cache once its
backward has run. Callers own the optimizer state and the train/eval mode
choice; eval mode is forward-only, and batch norm returns no cache there.

The per-element passes make only the full-size arrays their math needs and
keep no buffer between calls. Batch norm in an activated block applies the
block's ELU itself, over cache-sized slabs of its input, and writes the
activated output over the conv output it consumes; in train mode it caches
x_hat and its std only, and its backward recomputes ELU's derivative from
them. Eval batch norm is one per-channel scale and shift. :func:`elu`, which
caches its output, serves the blocks without batch norm: frozen models'
folded blocks and the feed-forward baseline. A convolution is three real
matrix products against cached DFT matrices, and keeps kernel blocks only
for immutable weights (see :class:`Conv1d` and :func:`immutable`).
"""

from __future__ import annotations

import numpy as np

from .fourier import dft_matrices


def ensure_finite(arr: np.ndarray, what: str) -> np.ndarray:
    # NaN and +-inf reach the min or the max, so two reductions decide it
    # without a full-size bool array
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise FloatingPointError(f"non-finite values in {what}")
    return arr


def immutable(arr: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of ``arr`` over a ``bytes`` object, which
    numpy refuses to make writable again."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return np.ndarray(arr.shape, dtype=np.float64, buffer=arr.tobytes())


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
    """Same-padded 1D cross-correlation, stride 1, odd kernel, on time-major
    (L, C, B) arrays: y[t, o, b] = sum_{i,s} x[t+s, i, b] w[o, i, pad+s].

    Computed in the frequency domain at the exact alias-free length
    m = L + (k - 1)/2: outputs 0..L-1 read only lags -pad..pad, so the
    unpadded input, the kernel's lags placed circularly around index 0 and
    every weight-gradient lag and input-gradient sample stay clear of the
    circular wrap. The forward pass is three real products on contiguous
    operands, against the cached DFT matrices of :func:`fourier.dft_matrices`:

    - the spectra ``forward @ x.reshape(L, I B)``, read as (bins, 2I, B);
    - per bin, K^T @ [Re X; Im X] = [Re Y; Im Y] with the kernel block
      K = [[P, Q], [-Q, P]] (2I, 2O), where P + iQ is the kernel's
      conjugate spectrum: one batched real matmul holds the complex product;
    - the outputs t < L only, ``inverse.T @ Y.reshape(2 bins, O B)``.

    The backward pass runs the transposes of these products and takes dW
    before dx. dW's lags come from the bin blocks' gradient through the
    kernel matrix; that is the input spectrum's last use, so the spectrum
    leaves the cache and is released there, before dx's spectrum is built
    in its place. The bin blocks are kept on the layer only for immutable
    weights (an array over ``bytes``, see :func:`immutable`), while the
    weight is the very array they were built from. This must match the
    naive sliding dot product to 1e-12 and the test suite holds it to that.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, name: str, bias: bool = True):
        if kernel_size % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {kernel_size}")
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        fan_in = in_channels * kernel_size
        self.weight = Parameter(f"{name}.weight",
                                _uniform_init(rng, (out_channels, in_channels, kernel_size), fan_in))
        # a bias is pointless (and makes gradients degenerate) when the layer
        # feeds straight into batch norm, so model code may drop it
        self.bias = Parameter(f"{name}.bias", _uniform_init(rng, (out_channels,), fan_in)) if bias else None
        # (L, the immutable weights the blocks were built from, blocks)
        self._blocks: tuple[int, np.ndarray, np.ndarray] | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def _kernel_blocks(self, length: int) -> np.ndarray:
        """Per-bin real form [[P, Q], [-Q, P]] of the kernel's conjugate
        spectrum P + iQ, as (bins, 2I, 2O)."""
        w = self.weight.value
        if self._blocks is not None:
            built_length, built_from, blocks = self._blocks
            if built_length == length and built_from is w:
                return blocks
        _, _, kernel = dft_matrices(length, self.kernel_size)
        i, o = self.in_channels, self.out_channels
        spec = kernel @ w.transpose(2, 1, 0).reshape(self.kernel_size, i * o)
        spec = spec.reshape(-1, 2, i, o)
        blocks = np.empty((spec.shape[0], 2 * i, 2 * o))
        blocks[:, :i, :o] = blocks[:, i:, o:] = spec[:, 0]
        blocks[:, :i, o:] = spec[:, 1]
        np.negative(spec[:, 1], out=blocks[:, i:, :o])
        self._blocks = (length, w, blocks) if isinstance(w.base, bytes) else None
        return blocks

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(f"expected input (length, {self.in_channels}, batch), got {x.shape}")
        length, _, batch = x.shape
        forward_dft, inverse_dft, _ = dft_matrices(length, self.kernel_size)
        blocks = self._kernel_blocks(length)
        bins = blocks.shape[0]

        x_spec = (forward_dft @ x.reshape(length, -1)).reshape(bins, -1, batch)
        y_spec = np.matmul(blocks.transpose(0, 2, 1), x_spec)
        y = (inverse_dft.T @ y_spec.reshape(2 * bins, -1)).reshape(length, -1, batch)
        if self.bias is not None:
            y += self.bias.value[:, None]
        ensure_finite(y, "conv1d output")
        return y, {"x_spec": x_spec, "blocks": blocks, "length": length}

    def backward(self, g: np.ndarray, cache: dict) -> np.ndarray:
        if "x_spec" not in cache:
            raise ValueError(f"{self.name}: backward cache already consumed; "
                             "a cache feeds one backward")
        blocks, length = cache["blocks"], cache["length"]
        forward_dft, inverse_dft, kernel = dft_matrices(length, self.kernel_size)
        bins, _, batch = cache["x_spec"].shape

        if self.bias is not None:
            self.bias.grad += g.sum(axis=(0, 2))

        # the forward's last product transposed, shared by dW and dx
        g_spec = (inverse_dft @ g.reshape(length, -1)).reshape(bins, -1, batch)
        # dW first: the spectrum's last use, so it leaves the cache with it
        self._weight_backward(cache.pop("x_spec"), g_spec, kernel)

        # dx: the forward's first two products transposed, last first
        dx_spec = np.matmul(blocks, g_spec)
        del g_spec
        return (forward_dft.T @ dx_spec.reshape(2 * bins, -1)).reshape(length, -1, batch)

    def _weight_backward(self, x_spec: np.ndarray, g_spec: np.ndarray,
                         kernel: np.ndarray) -> None:
        """Accumulate dW: each bin block's gradient folded onto P and Q,
        then onto the lags."""
        bins, i, o = x_spec.shape[0], self.in_channels, self.out_channels
        d_blocks = np.matmul(x_spec, g_spec.transpose(0, 2, 1))
        d_spec = np.empty((bins, 2, i, o))
        np.add(d_blocks[:, :i, :o], d_blocks[:, i:, o:], out=d_spec[:, 0])
        np.subtract(d_blocks[:, :i, o:], d_blocks[:, i:, :o], out=d_spec[:, 1])
        d_lags = kernel.T @ d_spec.reshape(2 * bins, i * o)
        self.weight.grad += d_lags.reshape(self.kernel_size, i, o).transpose(2, 1, 0)


BN_EPS = 1e-5       # batch norm's variance floor
BN_MOMENTUM = 0.1   # weight of each train batch in the running statistics
# values per batch-norm slab (512 KiB of float64): a slab is as many time
# rows of an (L, C, B) array as fit, and at least one, so that the few slab
# arrays a sweep touches stay in L2; one row of the decoder's 64 x 816
BN_SLAB_VALUES = 1 << 16


def _slabs(x: np.ndarray) -> list[slice]:
    """Row slices of a time-major (L, C, B) array, at most ``BN_SLAB_VALUES``
    values or one row each; the first is the tallest, and there is one even
    when L = 0."""
    height = max(1, BN_SLAB_VALUES // max(x.shape[1] * x.shape[2], 1))
    return [slice(t, t + height) for t in range(0, max(len(x), 1), height)]


class BatchNorm1d:
    """Per-channel batch normalization of a time-major (L, C, B) array, with
    statistics over axes (0, 2), the fixed variance floor ``BN_EPS`` and
    running statistics that move by the fixed ``BN_MOMENTUM`` per batch.

    ``forward(x, mode, activate=True)`` is the batch norm of an activated
    block (see ``fld.model.blocks_forward``): it also applies that block's
    ELU, in both modes, and writes the activated output over ``x``, the
    conv output it consumes; :meth:`backward` then applies ELU's derivative
    itself. Without ``activate`` the output is a fresh array.

    Both modes and the backward run over slabs of time rows, each at most
    ``BN_SLAB_VALUES`` values, so that a slab's per-element steps stay in
    cache. Train mode uses biased batch variance for normalization, unbiased
    for the running estimate, and rejects an input with fewer than two values
    per channel (L * B < 2, where the statistics are degenerate). It reads
    the input once for the statistics: each slab's mean and centred sum of
    squares, then merged. One more sweep writes x_hat (a fresh array) and
    the output. The cache holds x_hat and the batch std only: not the input,
    and not the activated output, since the backward recomputes
    ELU' = exp(min(gamma * x_hat + beta, 0)) slab by slab. Eval mode is
    forward-only: it applies the running statistics as one per-channel scale
    and shift, x * (gamma / std) + (beta - mean * gamma / std)
    (``eval_affine``), and returns a None cache, so :meth:`backward` is the
    train backward. Either mode raises on a non-finite value before ELU.
    """

    def __init__(self, num_features: int, name: str):
        self.num_features = num_features
        self.name = name
        self.gamma = Parameter(f"{name}.gamma", np.ones(num_features))
        self.beta = Parameter(f"{name}.beta", np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.running_mean": self.running_mean,
                f"{self.name}.running_var": self.running_var}

    def eval_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel (scale, shift) that eval mode applies: gamma / std
        and beta - mean * gamma / std."""
        scale = self.gamma.value / np.sqrt(self.running_var + BN_EPS)
        return scale, self.beta.value - self.running_mean * scale

    def forward(self, x: np.ndarray, mode: str, activate: bool = False
                ) -> tuple[np.ndarray, dict | None]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.num_features:
            raise ValueError(f"expected input (length, {self.num_features}, batch), got {x.shape}")
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        slabs = _slabs(x)
        scratch = np.empty(x[slabs[0]].shape)  # one slab's temporary, reused
        if mode == "train":
            n = x.size // self.num_features
            if n < 2:
                raise ValueError("batch normalization needs >= 2 values per channel in train mode")
            mean, var = self._moments(x, slabs, scratch)
            self.running_mean *= 1.0 - BN_MOMENTUM
            self.running_mean += BN_MOMENTUM * mean
            self.running_var *= 1.0 - BN_MOMENTUM
            self.running_var += BN_MOMENTUM * var * n / (n - 1)
            std = np.sqrt(var + BN_EPS)
            x_hat = np.empty(x.shape)
        else:
            scale, shift = self.eval_affine()
        y = x if activate else np.empty(x.shape)  # each slab is read before it is written
        for s in slabs:
            ys = y[s]
            if mode == "train":
                np.subtract(x[s], mean[:, None], out=x_hat[s])
                x_hat[s] /= std[:, None]
                np.multiply(x_hat[s], self.gamma.value[:, None], out=ys)
                ys += self.beta.value[:, None]
            else:
                np.multiply(x[s], scale[:, None], out=ys)
                ys += shift[:, None]
            ensure_finite(ys, "batchnorm output")
            if activate:  # as elu() computes it: max(u, expm1(min(u, 0)))
                u_neg = np.minimum(ys, 0.0, out=scratch[:len(ys)])
                np.expm1(u_neg, out=u_neg)
                np.maximum(ys, u_neg, out=ys)
        if mode == "eval":
            return y, None
        return y, {"x_hat": x_hat, "std": std, "activated": activate}

    def _moments(self, x: np.ndarray, slabs: list[slice], scratch: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel mean and biased variance of ``x``, one slab at a time:
        the slabs' means weighted by their share of the rows, and their
        centred sums of squares plus each slab's count times its mean's
        squared offset. One slab gives its own mean and variance exactly."""
        n = x.size // self.num_features
        means, squares, shares = [], [], []
        for s in slabs:
            xs = x[s]
            m = xs.mean(axis=(0, 2))
            centred = np.subtract(xs, m[:, None], out=scratch[:len(xs)])
            means.append(m)
            squares.append(np.einsum("lcb,lcb->c", centred, centred))  # no product array
            shares.append(len(xs) / len(x))
        means, shares = np.array(means), np.array(shares)[:, None]
        mean = (shares * means).sum(axis=0)
        m2 = np.sum(squares, axis=0) + (n * shares * (means - mean) ** 2).sum(axis=0)
        return mean, m2 / n

    def backward(self, g: np.ndarray, cache: dict | None) -> np.ndarray:
        if cache is None:
            raise ValueError(f"{self.name}: eval mode is forward-only and has no backward")
        x_hat, std = cache["x_hat"], cache["std"]
        slabs = _slabs(x_hat)
        # first sweep: dx holds the gradient at batch norm's output, through
        # ELU' = exp(min(gamma * x_hat + beta, 0)) in an activated block
        dx = np.empty(x_hat.shape)
        scratch = np.empty(dx[slabs[0]].shape)
        sum_g = np.zeros(self.num_features)
        sum_gx = np.zeros(self.num_features)
        for s in slabs:
            gs = dx[s]
            if cache["activated"]:
                np.multiply(x_hat[s], self.gamma.value[:, None], out=gs)
                gs += self.beta.value[:, None]
                np.minimum(gs, 0.0, out=gs)
                np.exp(gs, out=gs)
                gs *= g[s]
            else:
                gs[...] = g[s]
            sum_g += gs.sum(axis=(0, 2))
            sum_gx += np.einsum("lcb,lcb->c", gs, x_hat[s])
        self.beta.grad += sum_g
        self.gamma.grad += sum_gx
        # second sweep: gamma/std * (g - mean(g) - x_hat * mean(g * x_hat))
        n = x_hat.size // self.num_features
        slope, offset = (-sum_gx / n)[:, None], (sum_g / n)[:, None]
        scale = (self.gamma.value / std)[:, None]
        for s in slabs:
            gs = dx[s]
            gs += np.multiply(x_hat[s], slope, out=scratch[:len(gs)])
            gs -= offset
            gs *= scale
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

    Computed as max(x, expm1(min(x, 0))) in one buffer: for x > 0 the
    second term is 0, and for x <= 0 it is expm1(x) >= x. This is bitwise
    expm1(min(x, 0)) + max(x, 0) and needs no branch mask. The cache holds
    the output only, since x <= 0 exactly where y <= 0.
    """
    y = np.minimum(x, 0.0)
    np.expm1(y, out=y)
    np.maximum(x, y, out=y)
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
