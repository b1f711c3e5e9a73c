"""Unified eigensolver front-end for the spectral pipeline.

Three interchangeable backends compute the ``k`` *largest* eigenpairs of a
symmetric (normalized-affinity) matrix:

* ``"lanczos"`` — the paper's route: from-scratch Lanczos tridiagonalization
  (:mod:`repro.spectral.lanczos`) + implicit-shift QL
  (:mod:`repro.spectral.tridiagonal`), a Ritz-pair extraction.
* ``"dense"`` — LAPACK ``eigh`` via numpy; the exact reference.
* ``"arpack"`` — :func:`scipy.sparse.linalg.eigsh`, the implicitly restarted
  Lanczos the PSC baseline's PARPACK dependency corresponds to.

``"auto"`` picks one of ``"arpack"`` and ``"dense"`` from the matrix order
``n`` and ``k`` (:func:`resolve_backend`).

The matrix may be an ndarray, a sparse matrix or a
:class:`~repro.spectral.laplacian.NormalizedLaplacianOperator`. The iterative
backends and the gate only take products with it; only the dense solver
forms it.

An iterative result is accepted only when it passes the residual gate
(:func:`eigen_residuals`, :data:`GATE_TOL`). When an iterative backend raises,
returns too few or non-finite pairs, or fails the gate, the front-end falls
back to the dense solver and, with tracing on, records an ``eigen.fallback``
event and counter. Every solve records an ``eigen.solve`` event naming the
solver that produced the result; an accepted iterative one also carries its
residual and its count of matrix-vector products.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.observability import get_tracer
from repro.spectral.lanczos import lanczos_top_eigenpairs
from repro.spectral.tridiagonal import tridiagonal_eigh  # noqa: F401 (re-exported)

__all__ = ["GATE_TOL", "eigen_residuals", "resolve_backend", "top_eigenvectors"]

_BACKENDS = ("auto", "dense", "lanczos", "arpack")

#: Gate on an iterative result: relative residual and orthonormality bound.
GATE_TOL = 1e-8

#: ``"auto"`` runs ARPACK when ``n >= _AUTO_RATIO * max(k, _AUTO_K_FLOOR)``.
_AUTO_RATIO = 32
_AUTO_K_FLOOR = 8


def resolve_backend(backend: str, n: int, k: int) -> str:
    """The solver ``backend`` names for an ``n``-by-``n`` matrix and ``k`` pairs.

    ``"auto"`` resolves to ``"arpack"`` when ``n >= 32 * max(k, 8)`` and to
    ``"dense"`` otherwise; every other backend names itself. ARPACK's cost
    grows with ``k`` and dense ``eigh``'s does not, so the rule reads both.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {_BACKENDS}")
    if backend != "auto":
        return backend
    return "arpack" if n >= _AUTO_RATIO * max(k, _AUTO_K_FLOOR) else "dense"


def eigen_residuals(L, vals, vecs) -> tuple[float, float]:
    """``(residual, orthonormality)`` of eigenpairs ``(vals, vecs)`` of ``L``.

    ``residual`` is ``max_j ||L v_j - λ_j v_j|| / ||L||_F`` (unscaled when
    ``L`` is zero) and ``orthonormality`` is ``max |VᵀV - I|``. Both are NaN
    when a pair is not finite. An ``L`` with a ``frobenius_norm()`` method
    (the Eq.-2 operator) is never formed: ``L V`` comes from its products
    and ``||L||_F`` from that method.
    """
    vals = np.asarray(vals, dtype=np.float64)
    vecs = np.asarray(vecs, dtype=np.float64)
    if hasattr(L, "frobenius_norm"):
        scale = L.frobenius_norm()
    else:
        scale = float(spla.norm(L) if sp.issparse(L) else np.linalg.norm(L))
    worst = float(np.linalg.norm(L @ vecs - vecs * vals, axis=0).max(initial=0.0))
    ortho = float(np.abs(vecs.T @ vecs - np.eye(vecs.shape[1])).max(initial=0.0))
    return (worst / scale if scale > 0 else worst), ortho


def top_eigenvectors(L, k: int, *, backend: str = "dense", seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``k`` largest eigenvalues (descending) and their eigenvectors.

    Parameters
    ----------
    L:
        Symmetric matrix: an ndarray, a sparse matrix or a
        :class:`~repro.spectral.laplacian.NormalizedLaplacianOperator`,
        which only the dense solver forms.
    k:
        Number of eigenpairs; clipped to the matrix dimension.
    backend:
        One of ``"auto"``, ``"dense"``, ``"lanczos"``, ``"arpack"``.
        ``"auto"`` runs ARPACK when ``n >= 32 * max(k, 8)`` and dense
        ``eigh`` otherwise. Dense/ARPACK ms on one BLAS thread (2-vCPU VM,
        Eq.-2 matrix of blob data): n=256, k=8: 6.4/0.9; n=1024, k=32:
        265/70; n=3072, k=4: 5928/135; n=1024, k=96: 267/345; n=1024,
        k=341: 251/2512. ARPACK's cost grows with ``k`` and dense's does
        not, so the rule reads both. It never picked ARPACK where dense
        was faster, and it is conservative between ``k = n/32`` and about
        ``n/12``, where ARPACK still wins (n=1024, k=64: 266/175).
    seed:
        Start-vector randomness for the iterative backends. ARPACK also
        draws the fresh vectors it asks for after an invariant subspace
        from this seed's generator, so repeated calls agree.

    Returns
    -------
    (eigenvalues, eigenvectors) with eigenvalues descending and
    eigenvectors as columns.

    An iterative result must satisfy ``max_j ||L v_j - λ_j v_j|| <= GATE_TOL
    * ||L||_F`` and ``max |VᵀV - I| <= GATE_TOL``; otherwise, or when the
    solver raises, the dense pairs are returned and an ``eigen.fallback``
    event names the reason. An accepted iterative solve's ``eigen.solve``
    event carries its residual and ``matvecs``, its number of products
    with ``L``.
    """
    n = L.shape[0]
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"matrix must be square, got {L.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    solver = resolve_backend(backend, n, k)
    tracer = get_tracer()

    # The small-n path for the iterative backends is the dense solver.
    if n > 2 and (solver == "lanczos" or (solver == "arpack" and k < n - 1)):
        try:
            vals, vecs, matvecs = _ITERATIVE[solver](L, k, seed)
        except _SOLVER_ERRORS as exc:
            reason = f"{type(exc).__name__}: {exc}"
        else:
            if vals.shape[0] != k:
                # Space exhausted early (tiny or degenerate matrices).
                reason = f"{vals.shape[0]} of {k} Ritz pairs"
            elif not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
                reason = "non-finite Ritz pairs"
            else:
                residual, ortho = eigen_residuals(L, vals, vecs)
                reason = _gate_failure(residual, ortho)
            if reason is None:
                if tracer.enabled:
                    tracer.event(
                        "eigen.solve", solver=solver, n=n, k=k, residual=residual, matvecs=matvecs
                    )
                return vals, vecs
        if tracer.enabled:
            tracer.event("eigen.fallback", backend=solver, n=n, k=k, reason=reason)
            tracer.metrics.counter("eigen.fallback").inc()

    vals, vecs = np.linalg.eigh(_densify(L))
    order = np.argsort(vals)[::-1][:k]
    if tracer.enabled:
        tracer.event("eigen.solve", solver="dense", n=n, k=k)
    return vals[order], vecs[:, order]


def _gate_failure(residual: float, ortho: float) -> str | None:
    """The failed gate test, or ``None`` when both pass (NaN fails)."""
    if not residual <= GATE_TOL:
        return f"residual {residual:.3g} > {GATE_TOL:g}"
    if not ortho <= GATE_TOL:
        return f"orthonormality {ortho:.3g} > {GATE_TOL:g}"
    return None


class _Counted(spla.LinearOperator):
    """``L``, counting ARPACK's products with vectors.

    Products go through ``aslinearoperator(L)``, as ``eigsh`` would apply an
    ndarray or sparse ``L`` itself, so they keep their bits.
    """

    def __init__(self, L):
        self._op = spla.aslinearoperator(L)
        self.matvecs = 0
        super().__init__(self._op.dtype, self._op.shape)

    def _matvec(self, v):
        self.matvecs += 1
        return self._op.matvec(v)


def _arpack(L, k: int, seed) -> tuple[np.ndarray, np.ndarray, int]:
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(L.shape[0])
    op = _Counted(L)
    vals, vecs = spla.eigsh(op, k=k, which="LA", v0=v0, rng=rng)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order], op.matvecs


def _lanczos(L, k: int, seed) -> tuple[np.ndarray, np.ndarray, int]:
    # Restarted Lanczos: handles degenerate eigenvalues (disconnected
    # affinity graphs) by deflated restarts after early breakdowns.
    return lanczos_top_eigenpairs(spla.aslinearoperator(L).matvec, L.shape[0], k, seed=seed)


_ITERATIVE = {"arpack": _arpack, "lanczos": _lanczos}

# Non-convergence (ARPACK's two errors; the tridiagonal QL hitting its
# sweep cap) degrades gracefully to the exact dense solver.
_SOLVER_ERRORS = (spla.ArpackNoConvergence, spla.ArpackError, RuntimeError, np.linalg.LinAlgError)


def _densify(L) -> np.ndarray:
    if hasattr(L, "toarray"):
        return L.toarray()
    return np.asarray(L, dtype=np.float64)
