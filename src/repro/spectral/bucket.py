"""One bucket's spectral clustering — DASC's unit of work.

Every path that clusters a bucket runs :func:`solve_bucket`: ``DASC.fit``
and ``StreamingDASC.finalize`` (serially or in fork-pool workers) and the
stage-2 reducer (one per bucket, Section 5.1). Given the bucket's rows it
builds the bucket's Gram block (Algorithm 2) — only when the eigensolve
needs it — and hands it to :func:`cluster_bucket`, which applies the NJW
steps: the Eq.-2 matrix, its top-``k_i`` eigenvectors, row-normalized,
then K-means. The block is dropped when the call returns, so a process
running buckets one after another holds one block at a time. The result
is the local labels with the Nyström artifacts serving needs, so an
exported model reads them instead of clustering the bucket again. The
Eq.-2 matrix is an operator over the Gram block; only a dense eigensolve
forms it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from repro.kernels.matrix import gram_matrix_auto
from repro.observability import get_tracer
from repro.spectral.eigen import top_eigenvectors
from repro.spectral.embedding import row_normalize
from repro.spectral.kmeans import KMeans
from repro.spectral.laplacian import NormalizedLaplacianOperator
from repro.utils.timing import Stopwatch

__all__ = [
    "BucketClustering",
    "bucket_seed",
    "cluster_bucket",
    "needs_eigensolve",
    "solve_bucket",
]


@dataclass
class BucketClustering:
    """One bucket's local labels and the artifacts of its eigensolve.

    ``mode`` names the case the bucket fell in:

    * ``"nn"`` (``k_i >= n_i``) — every point is its own cluster;
    * ``"const"`` (``k_i == 1``) — the whole bucket is one cluster;
    * ``"nystrom"`` (``1 < k_i < n_i``) — the eigensolve ran, and the four
      array fields hold what the Nyström extension needs.
    """

    mode: str
    labels: np.ndarray                      # (n_i,) local labels in [0, k_i)
    d_inv_sqrt: np.ndarray | None = None    # (n_i,) 1/sqrt(degree), 0 when isolated
    basis: np.ndarray | None = None         # (n_i, k_i) top eigenvectors of L
    eigenvalues: np.ndarray | None = None   # (k_i,) matching eigenvalues, descending
    centroids: np.ndarray | None = None     # (k_i, k_i) K-means centroids of the embedding


def needs_eigensolve(n_i: int, k_i: int) -> bool:
    """Whether a bucket of ``n_i`` points split into ``k_i`` clusters is solved.

    Only these buckets need their Gram block.
    """
    return 1 < k_i < n_i


def bucket_seed(seed, bucket_id: int) -> int:
    """Bucket ``bucket_id``'s seed under master ``seed``: ``(seed + bucket_id) mod 2**31``.

    A non-integer ``seed`` (``None``, a generator) counts as 0. The rule is
    stateless, so a bucket's seed depends neither on bucket order nor on
    which buckets are solved, and every path that clusters it seeds it alike.
    """
    base = int(seed) if isinstance(seed, numbers.Integral) else 0
    return (base + int(bucket_id)) % 2**31


def cluster_bucket(
    n_i: int,
    k_i: int,
    S,
    seed=None,
    eig_backend: str = "auto",
    kmeans_n_init: int = 4,
    validate: bool = False,
) -> BucketClustering:
    """Spectral-cluster one bucket of ``n_i`` points into ``k_i`` local labels.

    ``S`` is the bucket's Gram block, read only when :func:`needs_eigensolve`
    holds (pass ``None`` otherwise). ``eig_backend`` names the eigensolver
    (:func:`repro.spectral.eigen.top_eigenvectors`; ``"auto"`` picks it from
    ``n_i`` and ``k_i``). ``seed`` (:func:`bucket_seed`) starts the
    iterative eigensolvers and seeds K-means; the result is a pure function
    of the arguments. With ``validate`` the eigenvalues must lie in
    ``[-1, 1]`` (the Eq.-2 bound), the eigenpairs pass the residual gate
    and the embedding rows be unit-norm, or
    :class:`repro.verify.InvariantViolation` is raised. A solved bucket runs
    in a ``spectral.bucket`` trace span carrying ``n_i`` and ``k_i``.
    """
    if k_i >= n_i:
        return BucketClustering("nn", np.arange(n_i, dtype=np.int64))
    if k_i == 1:
        return BucketClustering("const", np.zeros(n_i, dtype=np.int64))
    with get_tracer().span("spectral.bucket", n_i=n_i, k_i=k_i):
        L = NormalizedLaplacianOperator(S)
        vals, vecs = top_eigenvectors(L, k_i, backend=eig_backend, seed=seed)
        embedding = row_normalize(vecs)
        if validate:
            from repro.verify.invariants import (
                check_eigen_residual,
                check_eigenvalues,
                check_embedding,
            )

            check_eigenvalues(vals, stage="spectral.embedding")
            check_eigen_residual(L, vals, vecs, stage="spectral.embedding")
            check_embedding(embedding, stage="spectral.embedding")
        km = KMeans(k_i, n_init=kmeans_n_init, seed=seed).fit(embedding)
        return BucketClustering(
            "nystrom",
            km.labels_,
            d_inv_sqrt=L.d_inv_sqrt,
            basis=vecs,
            eigenvalues=vals,
            centroids=km.cluster_centers_,
        )


def solve_bucket(
    rows: np.ndarray,
    kernel,
    k_i: int,
    seed=None,
    *,
    zero_diagonal: bool = True,
    eig_backend: str = "auto",
    kmeans_n_init: int = 4,
    validate: bool = False,
    bucket_id: int | None = None,
    stopwatch: Stopwatch | None = None,
) -> BucketClustering:
    """Cluster the bucket whose points are ``rows`` into ``k_i`` local labels.

    When :func:`needs_eigensolve` holds, the bucket's Gram block
    (``kernel`` over ``rows``, zero diagonal by default, as Algorithm 2
    writes it) is built in a ``dasc.kernel`` trace span carrying ``n_i``,
    checked under ``validate``
    (:func:`~repro.verify.invariants.check_gram_block`), and passed to
    :func:`cluster_bucket` with the other arguments; it is not kept.
    Otherwise no block is built. ``bucket_id`` names the bucket in a failed
    check. A ``stopwatch`` accumulates the block's build under the
    ``"kernel"`` lap and the clustering under ``"spectral"``.
    """
    watch = stopwatch if stopwatch is not None else Stopwatch()
    n_i = rows.shape[0]
    S = None
    with watch.lap("kernel"):
        if needs_eigensolve(n_i, k_i):
            with get_tracer().span("dasc.kernel", n_i=n_i):
                S = gram_matrix_auto(rows, kernel, zero_diagonal=zero_diagonal)
            if validate:
                from repro.verify.invariants import check_gram_block

                check_gram_block(
                    S, zero_diagonal=zero_diagonal,
                    unit_range=getattr(kernel, "unit_range", False), bucket_id=bucket_id,
                )
    with watch.lap("spectral"):
        return cluster_bucket(
            n_i, k_i, S, seed, eig_backend=eig_backend, kmeans_n_init=kmeans_n_init,
            validate=validate,
        )
