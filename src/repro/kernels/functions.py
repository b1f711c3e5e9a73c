"""Kernel function objects.

Each kernel maps two sample matrices ``X (n, d)`` and ``Y (m, d)`` to an
``(n, m)`` similarity matrix. The paper's kernel is Eq. (1)'s Gaussian;
:class:`Kernel` is the plug-in point ``DASC(kernel=...)`` accepts. A kernel
must be positive semi-definite, which the spectral substrate relies on
(non-negative Laplacian spectra).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_2d, check_positive

__all__ = ["Kernel", "GaussianKernel"]


class Kernel:
    """Base class: a callable ``k(X, Y) -> (n, m)`` similarity matrix."""

    #: Whether every kernel value lies in [0, 1] (with k(x, x) = 1), as the
    #: Gaussian of Eq. (1) does. The validation layer only enforces the
    #: Gram-block range invariant for kernels that declare it.
    unit_range = False

    def __call__(self, X, Y=None) -> np.ndarray:
        X = check_2d(X)
        Y = X if Y is None else check_2d(Y)
        if X.shape[1] != Y.shape[1]:
            raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
        return self.compute(X, Y)

    def compute(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def compute_into(self, X: np.ndarray, Y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``compute(X, Y)`` into the ``(n, m)`` float64 view ``out``
        and return it. This generic version goes through one temporary; a
        kernel that can build in place overrides it."""
        out[...] = self.compute(X, Y)
        return out


#: Entries per row chunk of the in-place Gaussian: the ``|x|^2 + |y|^2``
#: scratch stays at 256 KB, so each chunk's passes run in cache.
_CHUNK_ENTRIES = 2**15


class GaussianKernel(Kernel):
    """The paper's Eq. (1): ``exp(-||x - y||^2 / (2 sigma^2))``.

    ``sigma`` is the kernel bandwidth controlling how rapidly similarity
    decays with distance.
    """

    unit_range = True

    def __init__(self, sigma: float = 1.0):
        check_positive(sigma, name="sigma")
        self.sigma = float(sigma)

    def compute(self, X, Y):
        return self.compute_into(X, Y, np.empty((X.shape[0], Y.shape[0])))

    def compute_into(self, X, Y, out):
        """Build the kernel inside ``out``: BLAS writes ``X Y^T`` there, and
        each row chunk becomes ``exp(max(|x|^2 + |y|^2 - 2 x.y, 0) / (-2 sigma^2))``
        in place. Every step is the elementwise operation a
        temporary-per-step evaluation would apply, so the entries are the
        same bits; the only large allocation is ``out``."""
        np.matmul(X, Y.T, out=out)
        x2 = np.einsum("ij,ij->i", X, X)
        y2 = np.einsum("ij,ij->i", Y, Y)
        scale = -2.0 * self.sigma**2
        step = max(1, _CHUNK_ENTRIES // max(1, Y.shape[0]))
        norms = np.empty((min(step, X.shape[0]), Y.shape[0]))
        for start in range(0, X.shape[0], step):
            rows = out[start : start + step]
            total = norms[: rows.shape[0]]
            np.add(x2[start : start + step, None], y2, out=total)
            rows *= 2.0
            np.subtract(total, rows, out=rows)
            np.maximum(rows, 0.0, out=rows)  # clip tiny negative values from cancellation
            rows /= scale
            np.exp(rows, out=rows)
        return out
