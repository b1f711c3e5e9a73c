"""NJW spectral embedding: top eigenvectors, rows normalized to unit length.

The paper (Section 3.2): stack the first K eigenvectors of the normalized
Laplacian in columns, then normalize each row ``Y_ij = X_ij / sqrt(sum_j
X_ij^2)`` and treat rows as points on the unit sphere for K-means.
"""

from __future__ import annotations

import numpy as np

from repro.spectral.eigen import top_eigenvectors
from repro.spectral.laplacian import normalized_laplacian

__all__ = ["row_normalize", "spectral_embedding"]


def row_normalize(X) -> np.ndarray:
    """Scale each row to unit Euclidean norm (zero rows are left at zero)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    safe = np.where(norms == 0, 1.0, norms)
    return X / safe


def spectral_embedding(S, k: int, *, backend: str = "dense", seed=0) -> np.ndarray:
    """(n, k) row-normalized NJW embedding of affinity matrix ``S``.

    Computes ``L = D^{-1/2} S D^{-1/2}`` (Eq. 2), extracts the ``k`` largest
    eigenvectors and row-normalizes.
    """
    L = normalized_laplacian(S)
    _, vecs = top_eigenvectors(L, k, backend=backend, seed=seed)
    return row_normalize(vecs)
