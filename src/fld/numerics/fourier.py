"""Real discrete Fourier transforms as products against cached real DFT
matrices, and the hand-derived reverse-mode rule of the half spectrum.

:func:`dft_matrices` builds every DFT matrix ``fld`` uses, for :func:`rfft`
and for ``layers.Conv1d``: at these short lengths one BLAS call on a dense
matrix is cheaper than an FFT row by row. :func:`rfft` transforms the last
axis of a segment-first array, ``x @ forward.T``; ``Conv1d`` transforms
axis 0 of a time-major (L, C, B) array, ``forward @ x``. A spectrum is held
as real and imaginary planes of bins 0..K, K = floor(H/2).

``rfft_backward`` is the vector-Jacobian product used by backprop. It treats
the stored bins as 2(K+1) independent real coordinates, so it is the plain
transpose of the forward map (no conjugate-bin doubling), not the adjoint
under the full-spectrum inner product.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def dft_matrices(length: int, kernel_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real DFT matrices at the alias-free length m = L + (k - 1)/2, with
    rows (bin j real part, bin j imaginary part) for j = 0..m//2:

    - ``forward`` (2 bins, L): ``forward @ x`` is ``rfft(x, n=m)``;
    - ``inverse`` (2 bins, L): ``spectrum @ inverse`` is ``irfft(spectrum, n=m)[:L]``;
    - ``kernel`` (2 bins, k): ``kernel @ w`` is ``conj(rfft(lags, n=m))``,
      where the lags -pad..pad of w sit at index s mod m.

    With k = 1, m = L and ``forward`` is the plain half-spectrum DFT.
    Cached per (L, k) and read-only, since every call shares them.
    """
    pad = (kernel_size - 1) // 2
    m = length + pad
    bins = np.arange(m // 2 + 1)[:, None]

    def cos_sin(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # j*n is reduced mod m as an integer, so every angle lies in [0, 2*pi)
        angle = (2.0 * np.pi / m) * ((bins * n) % m)
        return np.cos(angle), np.sin(angle)

    c, s = cos_sin(np.arange(length))
    forward = np.stack([c, -s], axis=1).reshape(-1, length)
    # irfft counts every bin but 0 and m/2 twice, for its conjugate
    weight = np.where((bins == 0) | (2 * bins == m), 1.0, 2.0) / m
    inverse = forward * np.repeat(weight, 2, axis=0)
    c, s = cos_sin(np.arange(-pad, pad + 1))
    kernel = np.stack([c, s], axis=1).reshape(-1, kernel_size)
    for a in (forward, inverse, kernel):
        a.setflags(write=False)
    return forward, inverse, kernel


def rfft(signal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectrum DFT of real ``signal`` along the last axis.

    Returns the planes (Re c_j, Im c_j) of c_j = sum_t x_t exp(-2i*pi*j*t/H)
    for j = 0..floor(H/2).
    """
    h = signal.shape[-1]
    if h < 2:
        raise ValueError(f"signal length must be >= 2, got {h}")
    spec = np.reshape(signal, (-1, h)) @ dft_matrices(h, 1)[0].T
    spec = spec.reshape(*signal.shape[:-1], h // 2 + 1, 2)
    return spec[..., 0], spec[..., 1]


def rfft_backward(grad_real: np.ndarray, grad_imag: np.ndarray, h: int) -> np.ndarray:
    """VJP of :func:`rfft`: transpose of the real-linear map onto stored bins."""
    k = h // 2
    if grad_real.shape[-1] != k + 1 or grad_imag.shape[-1] != k + 1:
        raise ValueError(f"expected {k + 1} bins for signal length {h}")
    grad = np.stack([grad_real, grad_imag], axis=-1).reshape(-1, 2 * (k + 1))
    return (grad @ dft_matrices(h, 1)[0]).reshape(*grad_real.shape[:-1], h)
