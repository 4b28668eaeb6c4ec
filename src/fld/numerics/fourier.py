"""Real discrete Fourier transform with its hand-derived reverse-mode rule.

Everything here works on the half spectrum: bins 0..K with K = floor(H/2).
The spectrum is stored as a complex128 array; callers that need separate
real/imaginary planes take ``.real`` / ``.imag`` views.

``rfft_backward`` is the vector-Jacobian product used by backprop. It treats
the stored bins as 2(K+1) independent real coordinates, so it is the plain
transpose of the forward map (no conjugate-bin doubling), not the adjoint
under the full-spectrum inner product.
"""

from __future__ import annotations

import numpy as np


def rfft(signal: np.ndarray) -> np.ndarray:
    """Half-spectrum DFT of real ``signal`` along the last axis.

    Returns bins c_j = sum_t x_t exp(-2i*pi*j*t/H) for j = 0..floor(H/2).
    """
    h = signal.shape[-1]
    if h < 2:
        raise ValueError(f"signal length must be >= 2, got {h}")
    return np.fft.rfft(signal, axis=-1)


def rfft_backward(grad_real: np.ndarray, grad_imag: np.ndarray, h: int) -> np.ndarray:
    """VJP of :func:`rfft`: transpose of the real-linear map onto stored bins."""
    k = h // 2
    if grad_real.shape[-1] != k + 1 or grad_imag.shape[-1] != k + 1:
        raise ValueError(f"expected {k + 1} bins for signal length {h}")
    angles = 2.0 * np.pi * np.outer(np.arange(k + 1), np.arange(h)) / h  # (K+1, H)
    return grad_real @ np.cos(angles) - grad_imag @ np.sin(angles)
