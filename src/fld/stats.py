"""Small statistics helpers: an empirical quantile with the midpoint
convention for gate calibration, and a 2-component PCA for manifold exports."""

from __future__ import annotations

import numpy as np


def quantile_midpoint(values: np.ndarray, q: float) -> float:
    """Empirical quantile with midpoint interpolation at exact rank boundaries.

    With sorted x_1..x_n and h = q*n: when h lands on an integer below n the
    result is (x_h + x_{h+1}) / 2, otherwise x_ceil(h). q = 1 gives the max,
    q*n < 1 the min; q = 0.5 on {1,2,3,4} gives 2.5.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    x = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    h = q * n
    # relative to h: an absolute tolerance falls below the float64 spacing
    # of h once n is in the tens of thousands
    tol = 1e-12 * h
    lo = int(np.floor(h + tol))
    if abs(h - lo) < tol and 1 <= lo < n:
        return float(0.5 * (x[lo - 1] + x[lo]))
    return float(x[min(max(int(np.ceil(h - tol)), 1), n) - 1])


def pca_project_2d(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project rows of ``points`` onto their top two principal components.

    Returns (projected (n, 2), components (2, d)). Degenerate directions
    (zero singular value, e.g. identical points) map to zeros.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("expected a non-empty (n, d) point matrix")
    centered = points - points.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    comps = np.zeros((2, points.shape[1]))
    take = min(2, vt.shape[0])
    for i in range(take):
        if svals[i] > 1e-12 * max(1.0, svals[0]):
            comps[i] = vt[i]
    return centered @ comps.T, comps
