"""Kernel functions and Gram-matrix computation substrate.

The DASC approximation is kernel-agnostic (Section 3.1): any positive
semi-definite kernel, a :class:`Kernel` subclass, can be plugged into the
per-bucket similarity step. The paper's experiments use the Gaussian (RBF)
kernel of Eq. (1), the one kernel defined here.
"""

from repro.kernels.functions import Kernel, GaussianKernel
from repro.kernels.matrix import (
    BLOCKED_THRESHOLD,
    pairwise_sq_distances,
    gram_matrix,
    gram_matrix_blocked,
    gram_matrix_auto,
)
from repro.kernels.bandwidth import median_heuristic, mean_knn_heuristic

__all__ = [
    "Kernel",
    "GaussianKernel",
    "pairwise_sq_distances",
    "gram_matrix",
    "gram_matrix_blocked",
    "gram_matrix_auto",
    "BLOCKED_THRESHOLD",
    "median_heuristic",
    "mean_knn_heuristic",
]
