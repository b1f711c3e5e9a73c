"""Full Gram-matrix computation (the O(N^2) baseline DASC avoids).

These routines are the exact-SC substrate: they compute every pairwise
similarity. ``gram_matrix_blocked`` streams the computation in row panels so
the working set stays cache-friendly and the N x N result is the only large
allocation — the idiom the HPC guides recommend over naive double loops.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.functions import Kernel
from repro.utils.validation import check_2d

__all__ = [
    "pairwise_sq_distances",
    "gram_matrix",
    "gram_matrix_blocked",
    "gram_matrix_auto",
    "BLOCKED_THRESHOLD",
]

#: Above this many rows, ``gram_matrix_auto`` switches to the blocked path.
BLOCKED_THRESHOLD = 2048


def pairwise_sq_distances(X, Y=None) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of X and Y (or X, X)."""
    X = check_2d(X)
    Y = X if Y is None else check_2d(Y)
    x2 = np.einsum("ij,ij->i", X, X)[:, None]
    y2 = np.einsum("ij,ij->i", Y, Y)[None, :]
    d2 = x2 + y2 - 2.0 * (X @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def gram_matrix(X, kernel: Kernel, *, zero_diagonal: bool = False) -> np.ndarray:
    """Dense kernel matrix ``K[i, j] = k(x_i, x_j)``.

    ``zero_diagonal=True`` reproduces the paper's Algorithm 2, which writes 0
    on the diagonal of each sub-similarity matrix (the NJW spectral
    clustering convention of a zero-self-affinity graph).
    """
    X = check_2d(X)
    K = kernel(X)
    if zero_diagonal:
        np.fill_diagonal(K, 0.0)
    return K


def gram_matrix_auto(
    X,
    kernel: Kernel,
    *,
    zero_diagonal: bool = False,
    threshold: int = BLOCKED_THRESHOLD,
    block_size: int = 1024,
) -> np.ndarray:
    """Gram matrix via the unblocked or blocked path, picked by size.

    Small inputs take :func:`gram_matrix` (one kernel call, no panel
    bookkeeping); inputs above ``threshold`` rows take
    :func:`gram_matrix_blocked` to bound the temporary working set.

    Every Gram consumer in the pipeline (the in-core kernel builder, both
    Stage-2 reducers, the parallel per-bucket workers) routes through this
    one helper so that any pair of runs being compared for bit-identity
    crosses the blocked/unblocked boundary at the same input sizes. (BLAS
    matrix products are not bitwise-reproducible across different problem
    partitionings, so blocked and unblocked results can differ by a few ULP
    beyond one panel — equal code paths, not equal tolerances, is what makes
    serial-vs-parallel comparisons exact.)
    """
    X = check_2d(X)
    if X.shape[0] > threshold:
        return gram_matrix_blocked(X, kernel, block_size=block_size, zero_diagonal=zero_diagonal)
    return gram_matrix(X, kernel, zero_diagonal=zero_diagonal)


def gram_matrix_blocked(
    X, kernel: Kernel, *, block_size: int = 1024, zero_diagonal: bool = False
) -> np.ndarray:
    """Dense kernel matrix computed in row panels of ``block_size``.

    Equivalent to :func:`gram_matrix` but bounds the temporary working set,
    exploiting symmetry by computing only the upper-triangular panels and
    mirroring them. Each panel is written straight into the result (a
    kernel that builds in place, such as the Gaussian, needs no panel
    temporary).
    """
    X = check_2d(X)
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    n = X.shape[0]
    K = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        # The upper-triangular panel from the diagonal right, built in K...
        kernel.compute_into(X[start:stop], X[start:], K[start:stop, start:])
        # ...mirrored below the diagonal. The diagonal block is stored
        # transposed too, as mirroring the whole panel leaves it; BLAS need
        # not round k(x_i, x_j) and k(x_j, x_i) alike, and this keeps which
        # of the two is stored.
        K[stop:, start:stop] = K[start:stop, stop:].T
        K[start:stop, start:stop] = K[start:stop, start:stop].T.copy()
    if zero_diagonal:
        np.fill_diagonal(K, 0.0)
    return K
