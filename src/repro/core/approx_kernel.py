"""Approximate kernel matrix — step 3 of DASC.

The approximation computes Eq.-(1) similarities only *within* buckets. Under
a bucket-sorted point order the result is block diagonal: one dense
``N_i x N_i`` Gram block per bucket, ``sum N_i^2`` entries total instead of
``N^2``. This module assembles those blocks, tracks their exact memory
footprint (Figure 6(b) / Eq. 12 accounting), and can materialise the
equivalent full-size matrix or its Frobenius norm for the Figure-5 metric —
without ever allocating N x N when only the norm is needed. ``DASC.fit``
keeps the accounting without the blocks (see :class:`ApproximateKernel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.buckets import Buckets
from repro.kernels.functions import Kernel
from repro.kernels.matrix import gram_matrix_auto
from repro.utils.memory import block_diagonal_bytes
from repro.utils.validation import check_2d

__all__ = ["ApproximateKernel", "build_approximate_kernel"]


@dataclass
class ApproximateKernel:
    """A block-diagonal approximation of the Gram matrix.

    Attributes
    ----------
    blocks:
        One dense Gram matrix per bucket (bucket id order), or ``None`` for
        a kernel that keeps only the partition: ``DASC.fit`` builds each
        block inside its bucket's task and drops it, so its
        ``approx_kernel_`` answers the accounting queries (sizes,
        :attr:`nbytes`, :attr:`stored_entries`) but not
        :meth:`frobenius_norm` or :meth:`to_dense`. ``DASC.transform(X)``
        returns the blocks.
    bucket_indices:
        Point indices (into the original data) for each block, same order.
    n_samples:
        N, the full matrix dimension.
    """

    blocks: list[np.ndarray] | None = None
    bucket_indices: list[np.ndarray] = field(default_factory=list)
    n_samples: int = 0

    @property
    def n_blocks(self) -> int:
        """Number of buckets B."""
        return len(self.bucket_indices)

    @property
    def block_sizes(self) -> np.ndarray:
        """(B,) sizes N_i of each block."""
        return np.array([idx.shape[0] for idx in self.bucket_indices], dtype=np.int64)

    @property
    def nbytes(self) -> int:
        """Exact storage of the approximation (single precision, Eq. 12)."""
        return block_diagonal_bytes(self.block_sizes)

    @property
    def stored_entries(self) -> int:
        """``sum N_i^2`` — the entry count the approximation keeps."""
        return int((self.block_sizes.astype(np.int64) ** 2).sum())

    def _require_blocks(self) -> list[np.ndarray]:
        if self.blocks is None:
            raise RuntimeError(
                "this approximate kernel keeps only the bucket partition (DASC.fit "
                "drops each Gram block once its bucket is clustered); call "
                "DASC.transform(X) for the blocks"
            )
        return self.blocks

    def frobenius_norm(self) -> float:
        """Frobenius norm of the approximation, from the blocks directly."""
        total = 0.0
        for block in self._require_blocks():
            total += float(np.einsum("ij,ij->", block, block))
        return float(np.sqrt(total))

    def to_dense(self) -> np.ndarray:
        """Materialise the full N x N approximate matrix (testing/small N only)."""
        blocks = self._require_blocks()
        K = np.zeros((self.n_samples, self.n_samples))
        for idx, block in zip(self.bucket_indices, blocks):
            K[np.ix_(idx, idx)] = block
        return K


def build_approximate_kernel(
    X, buckets: Buckets, kernel: Kernel, *, zero_diagonal: bool = True
) -> ApproximateKernel:
    """Compute the per-bucket Gram blocks (Algorithm 2, all reducers).

    ``zero_diagonal`` follows Algorithm 2, which writes 0 on each block's
    diagonal (zero self-affinity).
    """
    X = check_2d(X)
    if buckets.assignments.shape[0] != X.shape[0]:
        raise ValueError(
            f"buckets cover {buckets.assignments.shape[0]} points, data has {X.shape[0]}"
        )
    indices = [idx for _, idx in buckets.iter_members()]
    blocks = [gram_matrix_auto(X[idx], kernel, zero_diagonal=zero_diagonal) for idx in indices]
    return ApproximateKernel(blocks=blocks, bucket_indices=indices, n_samples=X.shape[0])
