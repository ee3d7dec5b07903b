"""Principal component analysis over rows of a data matrix."""
from __future__ import annotations

import numpy as np


def pca(data: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Top-k principal components of `data` (samples in rows).

    Returns (components [k, d] with orthonormal rows, projected [n, k],
    explained variances, non-increasing).  Each component's sign is fixed
    so its first nonzero loading is positive.  A direction with zero
    spread comes back with variance 0.0 rather than raising.

    The top-k eigenvectors of the smaller Gram matrix (n x n or d x d)
    span the dominant subspace exactly; a thin SVD of the centered data
    restricted to that subspace then gives the components and their
    singular values.  Taking the values from a product with the data,
    not from the squared Gram matrix, keeps a zero-spread direction's
    variance at rounding level (~1e-30), and the SVD keeps the rows
    orthonormal when k exceeds the rank.  Cost O(min(n,d)^2 max(n,d)),
    memory one centered copy of the data.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D (samples x features), got shape {data.shape}")
    n, d = data.shape
    if n < 2:
        raise ValueError(f"need at least 2 samples for PCA, got {n}")
    if not (1 <= k <= min(n, d)):
        raise ValueError(f"k must lie in [1, min(n, d)] = [1, {min(n, d)}], got {k}")
    if not np.isfinite(data).all():
        raise ValueError("data contains non-finite values")

    centered = data - data.mean(axis=0)
    if d >= n:
        basis = np.linalg.eigh(centered @ centered.T)[1][:, n - k:]    # [n, k]
        _, s, components = np.linalg.svd(basis.T @ centered, full_matrices=False)
    else:
        basis = np.linalg.eigh(centered.T @ centered)[1][:, d - k:]    # [d, k]
        _, s, wt = np.linalg.svd(centered @ basis, full_matrices=False)
        components = wt @ basis.T
    for row in components:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    projected = centered @ components.T
    variances = [float(x) for x in (s ** 2) / (n - 1)]
    return components, projected, variances
