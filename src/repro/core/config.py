"""DASC configuration and the paper's parameter defaults.

Section 5.4 fixes the defaults used throughout the evaluation:

* ``M = floor(log2(N) / 2) - 1`` signature bits,
* ``P = M - 1`` — merge buckets whose signatures share at least M-1 bits,
  i.e. differ in at most one bit, testable with the O(1) Eq.-6 trick.

Section 4.2 / Table 1 fit the cluster count of the Wikipedia corpus as
``K = 17 (log2 N - 9)`` (Eq. 15).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.kernels.bandwidth import mean_knn_heuristic, median_heuristic
from repro.observability import get_logger

__all__ = ["N_JOBS_ENV", "default_n_bits", "default_n_clusters", "DASCConfig"]

#: Environment variable giving the default worker count (unset: serial).
N_JOBS_ENV = "REPRO_N_JOBS"

logger = get_logger("core.config")


def default_n_bits(n_samples: int) -> int:
    """The paper's M: ``floor(log2(N) / 2) - 1``, clamped to [1, 64]."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    m = math.floor(math.log2(n_samples) / 2) - 1
    return max(1, min(64, m))


def default_n_clusters(n_samples: int) -> int:
    """Eq. (15): the Wikipedia category-count fit ``K = 17 (log2 N - 9)``.

    Clamped below by 1 (the fit goes non-positive for N <= 512).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    return max(1, round(17 * (math.log2(n_samples) - 9)))


@dataclass
class DASCConfig:
    """All tunables of the DASC pipeline.

    Parameters
    ----------
    n_clusters:
        Total clusters K (``None``: Eq. 15 from the data size).
    n_bits:
        Signature length M (``None``: the Section-5.4 default from N).
    min_shared_bits:
        P. Buckets merge when signatures share >= P bits. ``None`` means the
        paper's ``P = M - 1``. Setting ``P = M`` disables merging.
    merge_strategy:
        ``"star"`` (greedy largest-first, no chains; the default) or
        ``"transitive"`` (union-find closure; the literal Section-3.3
        reading, which can collapse dense signature sets into one bucket).
        See :func:`repro.core.buckets.merge_buckets`.
    dimension_policy / threshold_policy:
        Passed to :class:`repro.lsh.axis.AxisParallelHasher`, the paper's
        axis-parallel LSH family (Eqs. 4-5) and the only one.
    sigma:
        Gaussian bandwidth of Eq. (1), ``> 0``. ``None`` resolves to the
        median pairwise-distance heuristic, except under the ``"eigengap"``
        allocation, where the mean k-NN distance is used instead (see
        :meth:`resolve_sigma`).
    allocation:
        Per-bucket cluster allocation: ``"proportional"`` (K_i ∝ N_i),
        ``"fixed"`` (every bucket gets ``min(K, N_i)`` clusters), or
        ``"eigengap"`` (data-driven K_i from each bucket's Laplacian
        spectrum; an extension beyond the paper).
    min_bucket_size:
        Buckets smaller than this are folded into their nearest (by
        signature Hamming distance) large bucket before clustering, so
        singleton buckets don't each consume a cluster.
    refine_to_k:
        When the per-bucket label union exceeds the requested K (the
        ``"fixed"``/``"eigengap"`` policies, or clusters split across
        buckets), agglomeratively merge clusters back down to K with
        :func:`repro.core.refine.merge_clusters_to_k` (extension beyond
        the paper).
    eig_backend:
        Per-bucket eigensolver: ``"auto"`` (default), ``"dense"``,
        ``"lanczos"`` or ``"arpack"``. ``"auto"`` runs ARPACK when
        ``n_i >= 32 * max(k_i, 8)`` and dense ``eigh`` otherwise; ARPACK's
        cost grows with ``k_i`` and dense's does not. On one BLAS thread
        (dense/ARPACK ms) n=3072, k=4: 5928/135; n=1024, k=32: 265/70;
        n=1024, k=341: 251/2512. An ARPACK or Lanczos result must pass a
        residual and orthonormality gate (``1e-8``), or the bucket is
        solved dense and an ``eigen.fallback`` trace event records why
        (see :func:`repro.spectral.eigen.top_eigenvectors`).
    zero_diagonal:
        Algorithm 2's zero-self-similarity convention.
    seed:
        Master seed. Hashing and the bandwidth heuristics draw from it
        directly. Bucket ``b`` is clustered (iterative eigensolver start
        and K-means) with :func:`repro.spectral.bucket.bucket_seed`,
        ``(seed + b) mod 2**31``, in ``DASC``, ``StreamingDASC`` and
        ``DistributedDASC`` alike. ``None`` gives hashing and bandwidth
        sampling fresh OS entropy, while the per-bucket seeds count it as 0.
    n_jobs:
        Worker processes for the per-bucket kernel + spectral stage of
        ``DASC.fit`` and ``StreamingDASC.finalize`` (see
        :meth:`resolve_n_jobs`). Results are bit-identical to serial for
        any value — buckets are independent sub-problems and labels merge
        in bucket order. ``DistributedDASC``'s buckets are stage-2 reduce
        tasks, run in-process whatever it says.
    validate:
        Run the :mod:`repro.verify.invariants` checks at every stage
        boundary (bucket partition, Gram blocks, Laplacian spectrum,
        embedding rows, final labels), raising a structured
        ``InvariantViolation`` on the first broken contract. ``None``
        (the default) defers to the ``REPRO_VALIDATE`` environment
        variable; ``True``/``False`` force it per estimator.
    """

    n_clusters: int | None = None
    n_bits: int | None = None
    min_shared_bits: int | None = None
    merge_strategy: str = "star"
    dimension_policy: str = "span_weighted"
    threshold_policy: str = "histogram_valley"
    sigma: float | None = None
    allocation: str = "proportional"
    min_bucket_size: int = 2
    refine_to_k: bool = True
    eig_backend: str = "auto"
    zero_diagonal: bool = True
    kmeans_n_init: int = 4
    seed: int | None = 0
    n_jobs: int | None = None
    validate: bool | None = None

    def resolve_n_bits(self, n_samples: int) -> int:
        """M for this run (explicit value or the paper's default)."""
        if self.n_bits is not None:
            if not 1 <= self.n_bits <= 64:
                raise ValueError(f"n_bits must be in [1, 64], got {self.n_bits}")
            return self.n_bits
        return default_n_bits(n_samples)

    def resolve_n_clusters(self, n_samples: int) -> int:
        """K for this run (explicit value or the Eq.-15 default)."""
        if self.n_clusters is not None:
            if self.n_clusters < 1:
                raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
            return self.n_clusters
        return default_n_clusters(n_samples)

    def resolve_min_shared_bits(self, n_bits: int) -> int:
        """P for this run; the paper's default is M - 1."""
        if self.min_shared_bits is not None:
            if not 0 <= self.min_shared_bits <= n_bits:
                raise ValueError(
                    f"min_shared_bits must be in [0, {n_bits}], got {self.min_shared_bits}"
                )
            return self.min_shared_bits
        return max(n_bits - 1, 0)

    def resolve_n_jobs(self) -> int:
        """Worker processes for this run: ``n_jobs`` > ``REPRO_N_JOBS`` > 1.

        A negative count means every visible core and ``0`` means 1. An
        unset ``REPRO_N_JOBS`` is serial, and so is a non-integer one,
        which is ignored with a warning.
        """
        n_jobs = self.n_jobs
        if n_jobs is None:
            raw = os.environ.get(N_JOBS_ENV, "").strip()
            if not raw:
                return 1
            try:
                n_jobs = int(raw)
            except ValueError:
                logger.warning("ignoring non-integer %s=%r", N_JOBS_ENV, raw)
                return 1
        if n_jobs < 0:
            return max(1, os.cpu_count() or 1)
        return max(1, int(n_jobs))

    def resolve_sigma(self, X) -> float:
        """σ for data ``X`` (explicit value or a bandwidth heuristic on ``X``).

        ``"eigengap"`` reads cluster counts off the affinity spectrum, which
        needs a locality-scale bandwidth (the mean k-NN distance); the
        global median fuses nearby clusters into one eigenvalue. A σ that is
        not ``> 0`` raises ``ValueError``, as ``GaussianKernel`` does.
        """
        sigma = self.sigma
        if sigma is None:
            heuristic = mean_knn_heuristic if self.allocation == "eigengap" else median_heuristic
            sigma = heuristic(X, seed=self.seed)
        sigma = float(sigma)
        if not sigma > 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        return sigma
