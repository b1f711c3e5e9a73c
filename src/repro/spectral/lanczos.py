"""Restarted Lanczos eigensolver (from scratch, with full reorthogonalization).

The paper's Section 3.2 reduces the Laplacian to a symmetric tridiagonal
matrix before QR, citing Cullum & Willoughby. This is the Lanczos process:
given symmetric ``A`` and a start vector, build an orthonormal Krylov basis
``Q`` with ``Q^T A Q = T`` tridiagonal. We keep full reorthogonalization
(one modified-Gram-Schmidt sweep per step) because the plain three-term
recurrence loses orthogonality catastrophically in floating point — the
cost is acceptable at the per-bucket sizes DASC produces.
"""

from __future__ import annotations

import numpy as np

from repro.observability import get_tracer
from repro.utils.rng import as_rng

__all__ = ["lanczos_top_eigenpairs"]

_BREAKDOWN_TOL = 1e-12


def lanczos_top_eigenpairs(matvec, n: int, k: int, *, n_steps: int | None = None, seed=0):
    """Top-``k`` eigenpairs of a symmetric operator via restarted Lanczos.

    A single Krylov space contains exactly one direction from each
    *degenerate* eigenspace (the projection of the start vector), so plain
    Lanczos cannot resolve an eigenvalue of multiplicity > 1 — and the
    normalized Laplacian of a graph with c connected components has
    eigenvalue 1 with multiplicity c, the common case for DASC buckets.
    This driver restarts with fresh random vectors deflated against the
    basis already built, accumulating Ritz pairs across runs until ``k``
    directions are available.

    Parameters
    ----------
    matvec:
        Callable ``v -> A @ v`` (lets MapReduce-backed operators plug in).
    n:
        Operator dimension.
    k:
        Number of eigenpairs wanted.
    n_steps:
        Krylov steps per run (``None``: a 4k+20-ish default).
    seed:
        Start-vector randomness.

    Returns
    -------
    (eigenvalues, eigenvectors, matvecs) — eigenvalues descending, ``k``
    columns (fewer only if the whole space is exhausted first), and the
    number of ``matvec`` calls taken.
    """
    from repro.spectral.tridiagonal import tridiagonal_eigh

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    m_run = n_steps if n_steps is not None else min(n, max(4 * k + 20, 30))
    m_run = max(1, min(m_run, n))
    rng = as_rng(seed)

    basis: list[np.ndarray] = []  # all orthonormal columns built so far
    ritz_vals: list[float] = []
    ritz_vecs: list[np.ndarray] = []

    def deflate(v: np.ndarray) -> np.ndarray:
        for b in basis:
            v = v - (b @ v) * b
        return v

    tracer = get_tracer()
    n_runs = 0
    n_matvecs = 0

    # Restart only after an *early breakdown* — the signature of having
    # exhausted an invariant subspace (degenerate eigenvalues). A run that
    # completes all its steps means the Krylov space is still productive
    # and no deflated restart would surface anything the Ritz pairs missed.
    max_restarts = k + 2
    for _ in range(max_restarts):
        if len(basis) >= n:
            break
        # Fresh start vector, orthogonal to everything already built.
        q = deflate(rng.standard_normal(n))
        norm = np.linalg.norm(q)
        if norm < _BREAKDOWN_TOL:
            break
        q /= norm

        n_runs += 1
        seg_cols: list[np.ndarray] = [q]
        alpha: list[float] = []
        beta: list[float] = []
        steps = min(m_run, n - len(basis))
        broke_down = False
        for j in range(steps):
            w = matvec(seg_cols[j])
            n_matvecs += 1
            alpha.append(float(seg_cols[j] @ w))
            w = w - alpha[j] * seg_cols[j]
            if j > 0:
                w = w - beta[j - 1] * seg_cols[j - 1]
            # Full reorthogonalization against this segment AND prior runs.
            for b in seg_cols:
                w = w - (b @ w) * b
            w = deflate(w)
            if j + 1 == steps:
                break
            norm = np.linalg.norm(w)
            if norm < _BREAKDOWN_TOL:
                broke_down = True
                break
            beta.append(float(norm))
            seg_cols.append(w / norm)

        Q_seg = np.column_stack(seg_cols)
        theta, U = tridiagonal_eigh(
            np.array(alpha[: Q_seg.shape[1]]), np.array(beta[: Q_seg.shape[1] - 1])
        )
        vectors = Q_seg @ U
        for t, vcol in zip(theta, vectors.T):
            ritz_vals.append(float(t))
            ritz_vecs.append(vcol)
        basis.extend(seg_cols)
        if not broke_down and len(ritz_vals) >= k:
            break

    if tracer.enabled:
        tracer.event(
            "lanczos.solve",
            n=n, k=k, restarts=n_runs, matvecs=n_matvecs, basis_size=len(basis),
        )
        tracer.metrics.counter("lanczos.matvecs").inc(n_matvecs)
        tracer.metrics.counter("lanczos.restarts").inc(n_runs)

    order = np.argsort(ritz_vals)[::-1][:k]
    vals = np.array([ritz_vals[i] for i in order])
    vecs = np.column_stack([ritz_vecs[i] for i in order])
    return vals, vecs, n_matvecs
