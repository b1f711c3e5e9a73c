"""Parallel Spectral Clustering (Chen et al., TPAMI 2011) — the PSC baseline.

PSC scales spectral clustering by *sparsifying* the similarity matrix: keep
only each point's ``t`` nearest neighbours (symmetrically), then solve the
sparse eigenproblem with an implicitly restarted Lanczos method (PARPACK in
the original; :func:`scipy.sparse.linalg.eigsh` here — the same ARPACK
algorithm). Memory is O(t N) instead of O(N^2); the accuracy cost of the
hard sparsification is what Figures 3-4 measure against DASC.
"""

from __future__ import annotations

import numbers

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.kernels.functions import GaussianKernel, Kernel
from repro.kernels.matrix import pairwise_sq_distances
from repro.spectral.kmeans import KMeans
from repro.utils.memory import MemoryLedger, sparse_matrix_bytes
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_2d

__all__ = ["PSC"]


class PSC:
    """t-nearest-neighbour sparse spectral clustering.

    Parameters
    ----------
    n_clusters:
        Number of clusters K.
    n_neighbors:
        t, the number of retained neighbours per point.
    kernel / sigma:
        Affinity kernel on the retained edges (default Gaussian).
    block_size:
        Row-panel size for the neighbour search (bounds memory at
        O(block_size * N) during construction).
    seed:
        Eigensolver start vector and K-means randomness.

    Attributes (after :meth:`fit`)
    ------------------------------
    labels_ : (n,) cluster assignments
    affinity_matrix_ : the symmetrised sparse t-NN affinity (CSR)
    stopwatch_, memory_ : cost accounting of the last fit
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        n_neighbors: int = 10,
        kernel: Kernel | None = None,
        sigma: float = 1.0,
        block_size: int = 1024,
        kmeans_n_init: int = 4,
        seed=None,
    ):
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        self.n_clusters = int(n_clusters)
        self.n_neighbors = int(n_neighbors)
        self.kernel = kernel if kernel is not None else GaussianKernel(sigma)
        self.block_size = int(block_size)
        self.kmeans_n_init = int(kmeans_n_init)
        self.seed = seed
        self.labels_: np.ndarray | None = None
        self.affinity_matrix_: sp.csr_matrix | None = None
        self.embedding_: np.ndarray | None = None
        self.stopwatch_ = Stopwatch()
        self.memory_ = MemoryLedger()

    def fit(self, X) -> "PSC":
        """Cluster ``X`` with the sparse t-NN spectral pipeline."""
        X = check_2d(X)
        n = X.shape[0]
        if n < self.n_clusters:
            raise ValueError(f"n_samples={n} < n_clusters={self.n_clusters}")
        self.stopwatch_, self.memory_ = Stopwatch(), MemoryLedger()
        with self.stopwatch_.lap("knn_graph"):
            S = self._knn_affinity(X)
        self.affinity_matrix_ = S
        self.memory_.charge("gram_sparse", sparse_matrix_bytes(n, S.nnz))

        with self.stopwatch_.lap("eigen"):
            Y = self._sparse_embedding(S)
        with self.stopwatch_.lap("kmeans"):
            km = KMeans(self.n_clusters, n_init=self.kmeans_n_init, seed=self.seed)
            self.labels_ = km.fit_predict(Y)
        self.embedding_ = Y
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return the labels."""
        return self.fit(X).labels_

    # -- internals ----------------------------------------------------------

    def _knn_affinity(self, X: np.ndarray) -> sp.csr_matrix:
        """Symmetrised t-NN kernel affinity, built in row panels."""
        n = X.shape[0]
        t = min(self.n_neighbors, n - 1)
        rows, cols, vals = [], [], []
        for start in range(0, n, self.block_size):
            stop = min(start + self.block_size, n)
            d2 = pairwise_sq_distances(X[start:stop], X)
            d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
            nbr = np.argpartition(d2, t - 1, axis=1)[:, :t]
            sims = self.kernel(X[start:stop], X)  # panel of kernel values
            panel_rows = np.repeat(np.arange(start, stop), t)
            panel_cols = nbr.ravel()
            rows.append(panel_rows)
            cols.append(panel_cols)
            vals.append(sims[np.arange(stop - start).repeat(t), panel_cols])
        S = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        # Symmetrise by max: keep an edge if either endpoint selected it.
        return S.maximum(S.T).tocsr()

    def _sparse_embedding(self, S: sp.csr_matrix) -> np.ndarray:
        """Row-normalized top-K eigenvectors of the sparse normalized Laplacian."""
        n = S.shape[0]
        d = np.asarray(S.sum(axis=1)).ravel()
        d_inv_sqrt = np.zeros_like(d)
        positive = d > 0
        d_inv_sqrt[positive] = 1.0 / np.sqrt(d[positive])
        D = sp.diags(d_inv_sqrt)
        L = (D @ S @ D).tocsr()
        k = self.n_clusters
        if k >= n - 1:
            vals, vecs = np.linalg.eigh(L.toarray())
            order = np.argsort(vals)[::-1][:k]
            V = vecs[:, order]
        else:
            rng = np.random.default_rng(self.seed if isinstance(self.seed, numbers.Integral) else 0)
            # A Krylov run that hits an invariant subspace (this graph has
            # about one component per cluster) asks for a fresh vector; it
            # comes from ``rng``, which would otherwise be OS entropy.
            _, V = spla.eigsh(L, k=k, which="LA", v0=rng.standard_normal(n), rng=rng)
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        return V / np.where(norms == 0, 1.0, norms)
