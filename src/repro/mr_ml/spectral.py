"""Distributed spectral clustering — the Mahout role in the paper's stack.

The paper's final step hands the (approximated) similarity matrix to "the
standard MapReduce implementation of spectral clustering available in the
Mahout library". This module is that implementation, on our engine:

1. **degrees** — one map/reduce pass sums each row of the affinity matrix,
2. **normalize** — a map-only pass rescales each row block to
   ``D^{-1/2} S D^{-1/2}`` (Eq. 2),
3. **eigenvectors** — Lanczos iteration where every ``A @ v`` is a
   distributed :func:`repro.mr_ml.linalg.mr_matvec` job (Mahout's
   ``DistributedLanczosSolver``), followed by the small tridiagonal solve
   on the driver,
4. **K-Means** — the row-normalized embedding is clustered with
   :class:`repro.mr_ml.kmeans.MRKMeans`.

Agrees with the in-process :class:`repro.spectral.SpectralClustering` up to
eigensolver tolerance.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.types import JobSpec
from repro.mr_ml.kmeans import MRKMeans
from repro.mr_ml.linalg import mr_matvec, row_block_splits
from repro.spectral.lanczos import lanczos_top_eigenpairs
from repro.utils.validation import check_square

__all__ = ["MRSpectralClustering"]


def _degree_mapper(first_row, block, ctx):
    yield (first_row, block.sum(axis=1))


def _normalize_mapper(first_row, block, ctx):
    d_inv_sqrt = ctx.job.params["d_inv_sqrt"]
    rows = d_inv_sqrt[first_row : first_row + block.shape[0], None]
    yield (first_row, block * rows * d_inv_sqrt[None, :])


class MRSpectralClustering:
    """NJW spectral clustering executed as MapReduce jobs.

    Parameters
    ----------
    n_clusters:
        K.
    engine:
        Shared MapReduce engine (serial default).
    n_lanczos:
        Krylov steps for the distributed Lanczos solver (``None``: auto).
    block_size:
        Affinity-matrix rows per map task.
    seed:
        Lanczos start vector and K-Means seeding.

    Attributes (after :meth:`fit`)
    ------------------------------
    labels_ : (n,)
    embedding_ : (n, K) row-normalized spectral embedding
    total_makespan_ : simulated wall clock across every job
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        engine: MapReduceEngine | None = None,
        n_lanczos: int | None = None,
        block_size: int = 256,
        seed=None,
    ):
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = int(n_clusters)
        self.engine = engine if engine is not None else MapReduceEngine()
        self.n_lanczos = n_lanczos
        self.block_size = int(block_size)
        self.seed = seed
        self.labels_: np.ndarray | None = None
        self.embedding_: np.ndarray | None = None
        self.total_makespan_: float = 0.0

    def fit(self, S) -> "MRSpectralClustering":
        """Cluster an affinity matrix ``S`` (dense, symmetric, non-negative)."""
        S = check_square(S, name="S")
        n = S.shape[0]
        if n < self.n_clusters:
            raise ValueError(f"n_samples={n} < n_clusters={self.n_clusters}")
        self.total_makespan_ = 0.0

        # Job 1: degrees.
        splits = row_block_splits(S, self.block_size)
        degree_job = JobSpec(name="mr-sc-degrees", mapper=_degree_mapper)
        result = self.engine.run(degree_job, splits)
        self.total_makespan_ += result.makespan
        d = np.concatenate([piece for _, piece in sorted(result.output)])
        d_inv_sqrt = np.zeros_like(d)
        positive = d > 0
        d_inv_sqrt[positive] = 1.0 / np.sqrt(d[positive])

        # Job 2: normalized Laplacian row blocks (Eq. 2), map-only.
        norm_job = JobSpec(
            name="mr-sc-normalize",
            mapper=_normalize_mapper,
            params={"d_inv_sqrt": d_inv_sqrt},
        )
        result = self.engine.run(norm_job, splits)
        self.total_makespan_ += result.makespan
        l_splits = [[record] for record in sorted(result.output)]

        # Jobs 3..: distributed Lanczos — each A @ v is one MapReduce job.
        V = self._distributed_lanczos(l_splits, n)

        # Final jobs: distributed K-Means on the row-normalized embedding.
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        Y = V / np.where(norms == 0, 1.0, norms)
        km = MRKMeans(
            self.n_clusters, engine=self.engine, split_size=self.block_size, seed=self.seed
        )
        self.labels_ = km.fit_predict(Y)
        self.total_makespan_ += km.total_makespan_
        self.embedding_ = Y
        return self

    def fit_predict(self, S) -> np.ndarray:
        """Fit and return the labels."""
        return self.fit(S).labels_

    # -- internals ----------------------------------------------------------

    def _distributed_lanczos(self, l_splits, n: int) -> np.ndarray:
        """Top-K eigenvectors via restarted Lanczos with MapReduce mat-vecs.

        Every operator application is one :func:`mr_matvec` job (Mahout's
        ``DistributedLanczosSolver`` shape); the restart-on-breakdown logic
        lives in :func:`repro.spectral.lanczos.lanczos_top_eigenpairs` and
        handles the degenerate spectra of disconnected affinity graphs.
        """
        k = self.n_clusters
        seed = self.seed if isinstance(self.seed, numbers.Integral) else 0
        _, vecs, _ = lanczos_top_eigenpairs(
            lambda v: mr_matvec(self.engine, l_splits, v),
            n,
            k,
            n_steps=self.n_lanczos,
            seed=seed,
        )
        if vecs.shape[1] < k:
            # Space exhausted: pad with zero columns (rank-deficient input).
            vecs = np.pad(vecs, ((0, 0), (0, k - vecs.shape[1])))
        return vecs
