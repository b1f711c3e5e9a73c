"""The normalized graph Laplacian of an affinity matrix.

The paper's Eq. (2) uses the symmetric normalized form
``L = D^{-1/2} S D^{-1/2}`` (note: this is the *normalized affinity*; NJW
cluster structure lives in its **largest** eigenvectors, equivalently the
smallest of ``I - L``). Degree inversion exploits that ``D`` is diagonal —
an O(N) operation, as the paper's complexity analysis assumes.

:class:`NormalizedLaplacianOperator` is the same matrix as an operator over
a dense Gram block: Lanczos (Section 3.2) and ARPACK only need its products
with vectors, so they never pay for a second n²-sized array.

Isolated vertices (zero degree) get a zero row/column rather than a NaN,
which keeps per-bucket Laplacians well-defined when a bucket holds mutually
dissimilar points.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.utils.validation import check_square

__all__ = ["NormalizedLaplacianOperator", "degree_vector", "inv_sqrt_degrees", "normalized_laplacian"]


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


class NormalizedLaplacianOperator(spla.LinearOperator):
    """Eq. (2) over a dense Gram block ``S``, applied without forming it.

    A product ``d ⊙ (S (d ⊙ v))``, with ``d = inv_sqrt_degrees(S)``
    (:attr:`d_inv_sqrt`), reads ``S`` once, as a product with the formed
    matrix does, and needs no second n²-sized array. :meth:`toarray` forms
    the matrix, bit for bit the one :func:`normalized_laplacian` returns;
    :meth:`frobenius_norm` gives its Frobenius norm without forming it.
    """

    def __init__(self, S):
        self.S = check_square(S, name="affinity")
        self.d_inv_sqrt = inv_sqrt_degrees(self.S)
        super().__init__(np.dtype(np.float64), self.S.shape)

    def _matvec(self, v):
        # ``LinearOperator.matvec`` hands over an (n, 1) column as it is.
        v = np.ravel(v)
        d = self.d_inv_sqrt
        return d * (self.S @ (d * v))

    def _matmat(self, V):
        d = self.d_inv_sqrt[:, None]
        return d * (self.S @ (d * V))

    def toarray(self) -> np.ndarray:
        """The explicit matrix ``D^{-1/2} S D^{-1/2}``."""
        d = self.d_inv_sqrt
        return self.S * d[:, None] * d[None, :]

    def frobenius_norm(self) -> float:
        """``||L||_F`` from ``S`` and ``d``: ``sqrt(Σ_i d_i² Σ_j S_ij² d_j²)``."""
        d2 = self.d_inv_sqrt * self.d_inv_sqrt
        return float(np.sqrt(d2 @ np.einsum("ij,ij,j->i", self.S, self.S, d2)))


def normalized_laplacian(S):
    """Eq. (2): ``D^{-1/2} S D^{-1/2}`` (dense in, dense out; sparse in, sparse out).

    Eigenvalues lie in [-1, 1]; the top eigenvectors span the NJW embedding.
    """
    S = _as_affinity(S)
    if sp.issparse(S):
        D = sp.diags(inv_sqrt_degrees(S))
        return (D @ S @ D).tocsr()
    return NormalizedLaplacianOperator(S).toarray()
