"""Approximate kernel matrix — step 3 of DASC.

The approximation computes Eq.-(1) similarities only *within* buckets. Under
a bucket-sorted point order the result is block diagonal: one dense
``N_i x N_i`` Gram block per bucket, ``sum N_i^2`` entries total instead of
``N^2``. This module assembles those blocks, tracks their exact memory
footprint (Figure 6(b) / Eq. 12 accounting), and can materialise the
equivalent full-size matrix or its Frobenius norm for the Figure-5 metric —
without ever allocating N x N when only the norm is needed.
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
        One dense Gram matrix per bucket (bucket id order).
    bucket_indices:
        Point indices (into the original data) for each block, same order.
    n_samples:
        N, the full matrix dimension.
    """

    blocks: list[np.ndarray] = field(default_factory=list)
    bucket_indices: list[np.ndarray] = field(default_factory=list)
    n_samples: int = 0

    @property
    def n_blocks(self) -> int:
        """Number of buckets B."""
        return len(self.blocks)

    @property
    def block_sizes(self) -> np.ndarray:
        """(B,) sizes N_i of each block."""
        return np.array([b.shape[0] for b in self.blocks], dtype=np.int64)

    @property
    def nbytes(self) -> int:
        """Exact storage of the approximation (single precision, Eq. 12)."""
        return block_diagonal_bytes(self.block_sizes)

    @property
    def stored_entries(self) -> int:
        """``sum N_i^2`` — the entry count the approximation keeps."""
        return int((self.block_sizes.astype(np.int64) ** 2).sum())

    def frobenius_norm(self) -> float:
        """Frobenius norm of the approximation, from the blocks directly."""
        total = 0.0
        for block in self.blocks:
            total += float(np.einsum("ij,ij->", block, block))
        return float(np.sqrt(total))

    def to_dense(self) -> np.ndarray:
        """Materialise the full N x N approximate matrix (testing/small N only)."""
        K = np.zeros((self.n_samples, self.n_samples))
        for idx, block in zip(self.bucket_indices, self.blocks):
            K[np.ix_(idx, idx)] = block
        return K


def _bucket_block_worker(payload):
    """Process-pool entry point: compute one bucket's Gram block.

    The dataset arrives as a :class:`~repro.mapreduce.executor.SharedArray`
    handle (a few bytes per task); only the bucket's rows are copied out of
    the shared segment. The same function runs in-process on the serial
    path, so both backends execute identical arithmetic.
    """
    from repro.mapreduce.executor import _null_child_tracer

    _null_child_tracer()
    shared, idx, kernel, zero_diagonal = payload
    X = shared.asarray()
    block = gram_matrix_auto(X[idx], kernel, zero_diagonal=zero_diagonal)
    shared.close()
    return block


def build_approximate_kernel(
    X, buckets: Buckets, kernel: Kernel, *, zero_diagonal: bool = True, executor=None
) -> ApproximateKernel:
    """Compute the per-bucket Gram blocks (Algorithm 2, all reducers).

    ``zero_diagonal`` follows Algorithm 2, which writes 0 on each block's
    diagonal (zero self-affinity). With a parallel ``executor`` the blocks
    are computed across worker processes (dataset broadcast once through
    shared memory) and collected in bucket order — bit-identical to the
    serial result.
    """
    X = check_2d(X)
    if buckets.assignments.shape[0] != X.shape[0]:
        raise ValueError(
            f"buckets cover {buckets.assignments.shape[0]} points, data has {X.shape[0]}"
        )
    approx = ApproximateKernel(n_samples=X.shape[0])
    members = list(buckets.iter_members())
    if executor is not None and getattr(executor, "parallel", False) and len(members) > 1:
        from repro.mapreduce.executor import SharedArray, is_picklable

        if is_picklable(kernel):
            with SharedArray.create(X) as shared:
                payloads = [(shared, idx, kernel, zero_diagonal) for _, idx in members]
                blocks = executor.map_ordered(_bucket_block_worker, payloads)
            approx.blocks.extend(blocks)
            approx.bucket_indices.extend(idx for _, idx in members)
            return approx
    for _, idx in members:
        approx.blocks.append(
            _bucket_block_worker((_LocalArray(X), idx, kernel, zero_diagonal))
        )
        approx.bucket_indices.append(idx)
    return approx


class _LocalArray:
    """Duck-typed stand-in for SharedArray on the serial path (no copy)."""

    __slots__ = ("_array",)

    def __init__(self, array: np.ndarray):
        self._array = array

    def asarray(self) -> np.ndarray:
        return self._array

    def close(self) -> None:
        pass
