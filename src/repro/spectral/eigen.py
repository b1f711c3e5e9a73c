"""Unified eigensolver front-end for the spectral pipeline.

Three interchangeable backends compute the ``k`` *largest* eigenpairs of a
symmetric (normalized-affinity) matrix:

* ``"lanczos"`` — the paper's route: from-scratch Lanczos tridiagonalization
  (:mod:`repro.spectral.lanczos`) + implicit-shift QL
  (:mod:`repro.spectral.tridiagonal`), a Ritz-pair extraction.
* ``"dense"`` — LAPACK ``eigh`` via numpy; the exact reference.
* ``"arpack"`` — :func:`scipy.sparse.linalg.eigsh`, the implicitly restarted
  Lanczos the PSC baseline's PARPACK dependency corresponds to.

When ``"lanczos"`` cannot deliver (it raises, returns too few Ritz pairs, or
returns non-finite values) the front-end falls back to the dense solver and,
with tracing on, records an ``eigen.fallback`` event and counter.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.observability import get_tracer
from repro.spectral.lanczos import lanczos_top_eigenpairs
from repro.spectral.tridiagonal import tridiagonal_eigh  # noqa: F401 (re-exported)

__all__ = ["top_eigenvectors"]

_BACKENDS = ("dense", "lanczos", "arpack")


def top_eigenvectors(L, k: int, *, backend: str = "dense", seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``k`` largest eigenvalues (descending) and their eigenvectors.

    Parameters
    ----------
    L:
        Symmetric matrix, dense or sparse.
    k:
        Number of eigenpairs; clipped to the matrix dimension.
    backend:
        One of ``"dense"``, ``"lanczos"``, ``"arpack"``.
    seed:
        Start-vector randomness for the iterative backends.

    Returns
    -------
    (eigenvalues, eigenvectors) with eigenvalues descending and
    eigenvectors as columns.
    """
    n = L.shape[0]
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"matrix must be square, got {L.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {_BACKENDS}")

    if backend == "arpack" and k < n - 1 and n > 2:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        vals, vecs = spla.eigsh(L, k=k, which="LA", v0=v0)
        order = np.argsort(vals)[::-1]
        return vals[order], vecs[:, order]

    if backend == "lanczos" and n > 2:
        # Restarted Lanczos: handles degenerate eigenvalues (disconnected
        # affinity graphs) by deflated restarts after early breakdowns.
        dense = _densify(L)
        try:
            vals, vecs = lanczos_top_eigenpairs(lambda v: dense @ v, n, k, seed=seed)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            # Non-convergence (e.g. the tridiagonal QL hit its sweep cap):
            # degrade gracefully to the exact dense solver.
            reason = f"{type(exc).__name__}: {exc}"
        else:
            if vals.shape[0] != k:
                # Space exhausted early (tiny or degenerate matrices).
                reason = f"{vals.shape[0]} of {k} Ritz pairs"
            elif not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
                reason = "non-finite Ritz pairs"
            else:
                return vals, vecs
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("eigen.fallback", backend=backend, n=n, k=k, reason=reason)
            tracer.metrics.counter("eigen.fallback").inc()

    # Dense fallback (also the small-n path for the iterative backends).
    vals, vecs = np.linalg.eigh(_densify(L))
    order = np.argsort(vals)[::-1][:k]
    return vals[order], vecs[:, order]


def _densify(L) -> np.ndarray:
    if sp.issparse(L):
        return L.toarray()
    return np.asarray(L, dtype=np.float64)
