"""Nystrom-extension spectral clustering (the paper's NYST baseline).

One-shot Nystrom (Fowlkes et al.; Schuetter & Shi's multi-sample data
spectroscopy is the paper's citation): sample m landmark points, compute the
``n x m`` cross-kernel C and ``m x m`` landmark kernel W, approximate the
full kernel as ``K ~= C W^+ C^T``, normalise, and orthogonalise the extended
eigenvectors through the one-shot trick

    R = A + A^{-1/2} B B^T A^{-1/2},   R = U_R L U_R^T
    V = [A; B^T] A^{-1/2} U_R L^{-1/2}

where A is the landmark block and B the landmark-to-rest block of the
normalised kernel. Complexity O(m^2 n) time and O(m n) space — the
low-rank-family member the paper compares against.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.functions import GaussianKernel, Kernel
from repro.spectral.kmeans import KMeans
from repro.utils.memory import MemoryLedger, dense_matrix_bytes
from repro.utils.rng import as_rng
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_2d

__all__ = ["NystromSpectralClustering"]

_PINV_RCOND = 1e-10


class NystromSpectralClustering:
    """Spectral clustering via the Nystrom extension.

    Parameters
    ----------
    n_clusters:
        Number of clusters K.
    n_landmarks:
        Sample size m (clipped to n). More landmarks = better approximation,
        O(m^2 n) cost.
    kernel / sigma:
        Affinity kernel (default Gaussian with bandwidth ``sigma``).
    seed:
        Landmark sampling and K-means randomness.

    Attributes (after :meth:`fit`)
    ------------------------------
    labels_ : (n,) cluster assignments
    landmark_indices_ : (m,) sampled landmark rows
    stopwatch_, memory_ : cost accounting of the last fit
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        n_landmarks: int = 100,
        kernel: Kernel | None = None,
        sigma: float = 1.0,
        kmeans_n_init: int = 4,
        seed=None,
    ):
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_landmarks < 1:
            raise ValueError(f"n_landmarks must be >= 1, got {n_landmarks}")
        self.n_clusters = int(n_clusters)
        self.n_landmarks = int(n_landmarks)
        self.kernel = kernel if kernel is not None else GaussianKernel(sigma)
        self.kmeans_n_init = int(kmeans_n_init)
        self.seed = seed
        self.labels_: np.ndarray | None = None
        self.landmark_indices_: np.ndarray | None = None
        self.embedding_: np.ndarray | None = None
        self.stopwatch_ = Stopwatch()
        self.memory_ = MemoryLedger()

    def fit(self, X) -> "NystromSpectralClustering":
        """Cluster ``X`` with the one-shot Nystrom pipeline."""
        X = check_2d(X)
        n = X.shape[0]
        if n < self.n_clusters:
            raise ValueError(f"n_samples={n} < n_clusters={self.n_clusters}")
        self.stopwatch_, self.memory_ = Stopwatch(), MemoryLedger()
        rng = as_rng(self.seed)
        m = min(self.n_landmarks, n)
        m = max(m, self.n_clusters)  # need at least K landmark eigenvectors

        with self.stopwatch_.lap("sample"):
            landmarks = np.sort(rng.choice(n, size=m, replace=False))
            rest = np.setdiff1d(np.arange(n), landmarks)
        with self.stopwatch_.lap("kernel"):
            A = self.kernel(X[landmarks], X[landmarks])  # (m, m)
            # m == n means every point is a landmark and there is no rest block.
            B = self.kernel(X[landmarks], X[rest]) if rest.size else np.zeros((m, 0))
        self.memory_.charge("gram_nystrom", dense_matrix_bytes(m, n))

        with self.stopwatch_.lap("eigen"):
            V = self._one_shot_embedding(A, B)
        # Undo the landmark-first permutation.
        order = np.concatenate([landmarks, rest])
        inv = np.empty(n, dtype=np.int64)
        inv[order] = np.arange(n)
        Y = V[inv]
        norms = np.linalg.norm(Y, axis=1, keepdims=True)
        Y = Y / np.where(norms == 0, 1.0, norms)

        with self.stopwatch_.lap("kmeans"):
            km = KMeans(self.n_clusters, n_init=self.kmeans_n_init, seed=self.seed)
            self.labels_ = km.fit_predict(Y)
        self.landmark_indices_ = landmarks
        self.embedding_ = Y
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return the labels."""
        return self.fit(X).labels_

    # -- internals ----------------------------------------------------------

    def _one_shot_embedding(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Orthogonalised top-K eigenvectors of the Nystrom-approximated Laplacian."""
        m = A.shape[0]
        # Approximate degrees of K ~= [A B; B^T B^T A^+ B].
        a_row = A.sum(axis=1) + B.sum(axis=1)  # landmark degrees
        pinv_a_b_sum = np.linalg.pinv(A, rcond=_PINV_RCOND) @ B.sum(axis=1)
        b_row = B.sum(axis=0) + B.T @ pinv_a_b_sum  # rest degrees
        d = np.concatenate([a_row, b_row])
        d_inv_sqrt = np.zeros_like(d)
        positive = d > 0
        d_inv_sqrt[positive] = 1.0 / np.sqrt(d[positive])

        # Normalise the sampled blocks: L = D^{-1/2} K D^{-1/2}.
        A_n = A * d_inv_sqrt[:m, None] * d_inv_sqrt[None, :m]
        B_n = B * d_inv_sqrt[:m, None] * d_inv_sqrt[None, m:]

        # One-shot orthogonalisation (Fowlkes et al. Section 2.3).
        vals_a, vecs_a = np.linalg.eigh(A_n)
        vals_a = np.maximum(vals_a, 1e-12)
        A_isqrt = (vecs_a / np.sqrt(vals_a)) @ vecs_a.T
        R = A_n + A_isqrt @ (B_n @ B_n.T) @ A_isqrt
        R = (R + R.T) / 2.0
        vals_r, vecs_r = np.linalg.eigh(R)
        order = np.argsort(vals_r)[::-1][: self.n_clusters]
        lam = np.maximum(vals_r[order], 1e-12)
        U = vecs_r[:, order]
        stacked = np.vstack([A_n, B_n.T])  # (n, m)
        return stacked @ (A_isqrt @ U) / np.sqrt(lam)[None, :]
