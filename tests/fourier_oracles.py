"""Dense O(H^2) Fourier oracles for the tests: the half-spectrum DFT, and the
adjoint of ``rfft`` under the full-spectrum inner product.

``fld.numerics.rfft_backward`` is the plain transpose onto the stored bins;
``rfft_adjoint`` differs from it by counting every bin strictly between 0 and
H/2 twice (its conjugate mirror is implicit). Under that inner product
adjoint(rfft(x)) == H*x.
"""

import numpy as np


def naive_dft(signal: np.ndarray) -> np.ndarray:
    """O(H^2) half-spectrum DFT. Correctness baseline for the fast path."""
    signal = np.asarray(signal, dtype=np.float64)
    h = signal.shape[-1]
    if h < 2:
        raise ValueError(f"signal length must be >= 2, got {h}")
    t = np.arange(h)
    j = np.arange(h // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(j, t) / h)  # (K+1, H)
    return signal @ basis.T


def _full_spectrum_weights(h: int) -> np.ndarray:
    k = h // 2
    weights = np.full(k + 1, 2.0)
    weights[0] = 1.0
    if h % 2 == 0:
        weights[k] = 1.0
    return weights


def rfft_adjoint(spectrum: np.ndarray, h: int) -> np.ndarray:
    """Adjoint of ``rfft`` under the conjugate-symmetric inner product.

    Satisfies <rfft(x), y>_spec == <x, rfft_adjoint(y)> with
    <u, v>_spec = sum_j w_j (Re u_j Re v_j + Im u_j Im v_j), w_j = 2 except
    w_0 = 1 and (even H) w_{H/2} = 1.
    """
    spectrum = np.asarray(spectrum)
    w = _full_spectrum_weights(h)
    angles = 2.0 * np.pi * np.outer(np.arange(h // 2 + 1), np.arange(h)) / h
    return (spectrum.real @ (np.cos(angles) * w[:, None])
            - spectrum.imag @ (np.sin(angles) * w[:, None]))


def spectrum_inner(u: np.ndarray, v: np.ndarray, h: int) -> float:
    """Inner product on half spectra under which ``rfft_adjoint`` is the adjoint."""
    w = _full_spectrum_weights(h)
    return float(np.sum(w * (u.real * v.real + u.imag * v.imag)))
