"""Per-bucket cluster allocation.

DASC clusters each bucket independently into K_i clusters with
``sum K_i = K`` (the global cluster count). The paper does not pin the
allocation rule down, so three policies are provided and ablated
(``benchmarks/bench_ablation_allocation.py``):

* ``"proportional"`` — K_i ∝ N_i (largest-remainder rounding). Matches the
  uniform-bucket analysis of Section 4.1 where K_i = K / B.
* ``"fixed"`` — every bucket gets ``min(K, N_i)`` clusters (no global
  budget; yields >= K total clusters).
* ``"eigengap"`` (an extension beyond the paper) — K_i is read off the
  bucket's own normalized-Laplacian spectrum via the eigengap heuristic
  (:func:`choose_k_eigengap`), so buckets that captured several true
  clusters receive several, independent of their point count.

Every policy guarantees ``1 <= K_i <= N_i`` for non-empty buckets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["allocate_clusters", "choose_k_eigengap"]


def choose_k_eigengap(affinity: np.ndarray, k_max: int) -> int:
    """Eigengap heuristic: K = position of the largest gap in the spectrum.

    The normalized affinity ``D^{-1/2} S D^{-1/2}`` of a graph with K
    well-separated clusters has K eigenvalues near 1 followed by a drop;
    the index of the largest consecutive gap among the top ``k_max + 1``
    eigenvalues estimates K.
    """
    from repro.spectral.laplacian import normalized_laplacian

    n = affinity.shape[0]
    if n <= 2:
        return 1
    k_max = max(1, min(k_max, n - 1))
    L = normalized_laplacian(affinity)
    eigs = np.sort(np.linalg.eigvalsh(L))[::-1][: k_max + 1]
    gaps = eigs[:-1] - eigs[1:]
    return int(np.argmax(gaps)) + 1


def allocate_clusters(
    bucket_sizes, n_clusters: int, *, policy: str = "proportional", eigengap_k=None
) -> np.ndarray:
    """Split a global budget of ``n_clusters`` across buckets.

    Parameters
    ----------
    bucket_sizes:
        (B,) sizes N_i; all must be >= 1.
    n_clusters:
        Global K.
    policy:
        ``"proportional"``, ``"fixed"`` or ``"eigengap"``.
    eigengap_k:
        (B,) per-bucket :func:`choose_k_eigengap` estimates, read only by
        ``"eigengap"``. They are the allocation when they sum to at least K;
        otherwise (a large sigma can fuse the spectrum) each K_i is raised
        to its proportional share, so the union offers at least K clusters
        for the refine step to merge.

    Returns
    -------
    (B,) int K_i with ``1 <= K_i <= N_i``; for the budgeted policies
    ``sum K_i == min(max(K, B), sum N_i)`` — every bucket needs at least one
    cluster and no bucket can host more clusters than points.
    """
    sizes = np.asarray(bucket_sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size == 0:
        raise ValueError(f"bucket_sizes must be a non-empty vector, got shape {sizes.shape}")
    if (sizes < 1).any():
        raise ValueError("all buckets must be non-empty")
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")

    if policy == "eigengap":
        if eigengap_k is None:
            raise ValueError("policy='eigengap' needs the per-bucket estimates eigengap_k")
        estimates = np.asarray(eigengap_k, dtype=np.int64)
        if estimates.sum() >= n_clusters:
            return estimates
        return np.maximum(estimates, allocate_clusters(sizes, n_clusters, policy="proportional"))
    if policy == "fixed":
        return np.minimum(n_clusters, sizes)
    if policy != "proportional":
        raise ValueError(f"unknown policy {policy!r}")

    b = sizes.shape[0]
    budget = min(max(n_clusters, b), int(sizes.sum()))
    # Start from the floor of the fractional share, clamped to [1, N_i].
    shares = sizes / sizes.sum() * budget
    alloc = np.clip(np.floor(shares).astype(np.int64), 1, sizes)
    # Largest-remainder distribution of the leftover budget.
    remainder = budget - int(alloc.sum())
    if remainder > 0:
        frac = shares - np.floor(shares)
        order = np.argsort(frac, kind="stable")[::-1]
        for idx in np.tile(order, int(np.ceil(remainder / b)) + 1):
            if remainder == 0:
                break
            if alloc[idx] < sizes[idx]:
                alloc[idx] += 1
                remainder -= 1
    elif remainder < 0:
        # Floors exceeded the budget (many 1-clamps); shave the largest allocs.
        order = np.argsort(alloc, kind="stable")[::-1]
        for idx in np.tile(order, b):
            if remainder == 0:
                break
            if alloc[idx] > 1:
                alloc[idx] -= 1
                remainder += 1
    return alloc
