"""Exact spectral clustering — the paper's SC baseline.

The NJW pipeline on the *full* O(N^2) Gram matrix: Gaussian affinity
(Eq. 1), normalized Laplacian (Eq. 2), top-K eigenvectors, row-normalized
embedding, K-means. This is the accuracy gold standard DASC is compared
against and the cost baseline it beats.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.functions import GaussianKernel, Kernel
from repro.kernels.matrix import gram_matrix
from repro.spectral.embedding import spectral_embedding
from repro.spectral.kmeans import KMeans
from repro.utils.memory import MemoryLedger, dense_matrix_bytes
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_2d

__all__ = ["SpectralClustering"]


class SpectralClustering:
    """NJW spectral clustering on the full kernel matrix.

    Parameters
    ----------
    n_clusters:
        Number of clusters K.
    kernel:
        Kernel object (default: Gaussian with ``sigma``).
    sigma:
        Gaussian bandwidth used when ``kernel`` is not given.
    eig_backend:
        Eigensolver backend (see :func:`repro.spectral.eigen.top_eigenvectors`).
    zero_diagonal:
        Zero the affinity diagonal (the NJW / Algorithm-2 convention).
    seed:
        Randomness for the eigensolver start vector and K-means.

    Attributes (after :meth:`fit`)
    ------------------------------
    labels_ : (n,) cluster assignments
    affinity_matrix_ : the dense Gram matrix used
    stopwatch_ : per-stage wall time of the last fit
    memory_ : its Gram-matrix footprint ledger (Figure 6(b) accounting)
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        kernel: Kernel | None = None,
        sigma: float = 1.0,
        eig_backend: str = "dense",
        zero_diagonal: bool = True,
        kmeans_n_init: int = 4,
        seed=None,
    ):
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = int(n_clusters)
        self.kernel = kernel if kernel is not None else GaussianKernel(sigma)
        self.eig_backend = eig_backend
        self.zero_diagonal = bool(zero_diagonal)
        self.kmeans_n_init = int(kmeans_n_init)
        self.seed = seed
        self.labels_: np.ndarray | None = None
        self.affinity_matrix_: np.ndarray | None = None
        self.embedding_: np.ndarray | None = None
        self.stopwatch_ = Stopwatch()
        self.memory_ = MemoryLedger()

    def fit(self, X) -> "SpectralClustering":
        """Cluster ``X`` with the full-matrix NJW pipeline."""
        X = check_2d(X)
        n = X.shape[0]
        if n < self.n_clusters:
            raise ValueError(f"n_samples={n} < n_clusters={self.n_clusters}")
        self.stopwatch_, self.memory_ = Stopwatch(), MemoryLedger()
        with self.stopwatch_.lap("gram"):
            S = gram_matrix(X, self.kernel, zero_diagonal=self.zero_diagonal)
        self.memory_.charge("gram", dense_matrix_bytes(n))
        with self.stopwatch_.lap("eigen"):
            Y = spectral_embedding(S, self.n_clusters, backend=self.eig_backend, seed=_to_int_seed(self.seed))
        with self.stopwatch_.lap("kmeans"):
            km = KMeans(self.n_clusters, n_init=self.kmeans_n_init, seed=self.seed)
            self.labels_ = km.fit_predict(Y)
        self.affinity_matrix_ = S
        self.embedding_ = Y
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return the labels."""
        return self.fit(X).labels_


def _to_int_seed(seed) -> int:
    """Derive a plain int seed (for solver start vectors) from any seed form."""
    if seed is None:
        return 0
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(np.random.default_rng(seed).integers(2**31))
