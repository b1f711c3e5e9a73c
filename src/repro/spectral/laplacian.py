"""The normalized graph Laplacian of an affinity matrix.

The paper's Eq. (2) uses the symmetric normalized form
``L = D^{-1/2} S D^{-1/2}`` (note: this is the *normalized affinity*; NJW
cluster structure lives in its **largest** eigenvectors, equivalently the
smallest of ``I - L``). Degree inversion exploits that ``D`` is diagonal —
an O(N) operation, as the paper's complexity analysis assumes.

Isolated vertices (zero degree) get a zero row/column rather than a NaN,
which keeps per-bucket Laplacians well-defined when a bucket holds mutually
dissimilar points.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import check_square

__all__ = ["degree_vector", "inv_sqrt_degrees", "normalized_laplacian"]


def _as_affinity(S):
    if sp.issparse(S):
        if S.shape[0] != S.shape[1]:
            raise ValueError(f"affinity must be square, got {S.shape}")
        return S.tocsr()
    return check_square(S, name="affinity")


def degree_vector(S) -> np.ndarray:
    """Row sums of the affinity matrix (vertex degrees)."""
    S = _as_affinity(S)
    if sp.issparse(S):
        return np.asarray(S.sum(axis=1)).ravel()
    return S.sum(axis=1)


def inv_sqrt_degrees(S) -> np.ndarray:
    """The diagonal of ``D^{-1/2}``: ``1/sqrt(degree)``, 0 for isolated vertices."""
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sqrt(degree_vector(S))
    inv[~np.isfinite(inv)] = 0.0
    return inv


def normalized_laplacian(S):
    """Eq. (2): ``D^{-1/2} S D^{-1/2}`` (dense in, dense out; sparse in, sparse out).

    Eigenvalues lie in [-1, 1]; the top eigenvectors span the NJW embedding.
    """
    S = _as_affinity(S)
    d_inv_sqrt = inv_sqrt_degrees(S)
    if sp.issparse(S):
        D = sp.diags(d_inv_sqrt)
        return (D @ S @ D).tocsr()
    return S * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
