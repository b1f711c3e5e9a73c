"""Gram-matrix memory accounting.

The paper's Figure 6(b) and Table 3 report the memory needed to *store the
kernel (Gram) matrix* under each algorithm:

* exact SC stores the full dense ``N x N`` matrix,
* PSC stores a t-nearest-neighbour sparse matrix,
* DASC stores one dense block per hashing bucket.

These helpers compute those footprints exactly (in bytes) from the matrix
shapes, independent of how Python happens to allocate memory, which mirrors
the paper's single-precision accounting (Eq. 12: ``4 * B * (N/B)^2`` bytes).
:func:`traced_peak` measures instead: the peak a call allocates, as
``tracemalloc`` sees it (numpy reports its buffers there).
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field
from collections.abc import Iterable

__all__ = [
    "dense_matrix_bytes",
    "block_diagonal_bytes",
    "sparse_matrix_bytes",
    "traced_peak",
    "MemoryLedger",
]

#: Bytes per matrix entry; the paper assumes single-precision floats (Eq. 12).
FLOAT_BYTES = 4


def dense_matrix_bytes(n_rows: int, n_cols: int | None = None, *, itemsize: int = FLOAT_BYTES) -> int:
    """Footprint of a dense ``n_rows x n_cols`` matrix (square if ``n_cols`` omitted)."""
    if n_rows < 0:
        raise ValueError(f"n_rows must be non-negative, got {n_rows}")
    if n_cols is None:
        n_cols = n_rows
    if n_cols < 0:
        raise ValueError(f"n_cols must be non-negative, got {n_cols}")
    return n_rows * n_cols * itemsize


def block_diagonal_bytes(block_sizes: Iterable[int], *, itemsize: int = FLOAT_BYTES) -> int:
    """Footprint of a block-diagonal matrix: sum of ``N_i^2`` dense blocks.

    This is the DASC approximate-kernel footprint (Eq. 11's space term).
    """
    total = 0
    for size in block_sizes:
        if size < 0:
            raise ValueError(f"block sizes must be non-negative, got {size}")
        total += size * size * itemsize
    return total


def sparse_matrix_bytes(
    n_rows: int, nnz: int, *, itemsize: int = FLOAT_BYTES, index_bytes: int = 4
) -> int:
    """CSR footprint: values + column indices + row pointers.

    Models PSC's t-nearest-neighbour sparse similarity matrix, where
    ``nnz ~= t * N`` after symmetrisation.
    """
    if n_rows < 0 or nnz < 0:
        raise ValueError("n_rows and nnz must be non-negative")
    return nnz * (itemsize + index_bytes) + (n_rows + 1) * index_bytes


def traced_peak(fn):
    """``(fn(), peak)``: ``peak`` is the most bytes traced during the call
    beyond those traced when it began.

    When ``tracemalloc`` is already tracing, it resets that trace's peak
    and leaves it running; otherwise it traces only for the call.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@dataclass
class MemoryLedger:
    """Accumulates per-stage peak memory attributions for one algorithm run."""

    entries: dict[str, int] = field(default_factory=dict)

    def charge(self, stage: str, nbytes: int) -> None:
        """Record ``nbytes`` against ``stage`` (summing repeat charges)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        self.entries[stage] = self.entries.get(stage, 0) + nbytes

    @property
    def total(self) -> int:
        """Total bytes across all stages."""
        return sum(self.entries.values())

    @property
    def peak(self) -> int:
        """Largest single-stage charge (a proxy for resident peak)."""
        return max(self.entries.values(), default=0)
