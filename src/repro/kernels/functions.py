"""Kernel function objects.

Each kernel maps two sample matrices ``X (n, d)`` and ``Y (m, d)`` to an
``(n, m)`` similarity matrix. All kernels here are positive semi-definite,
which the spectral substrate relies on (non-negative Laplacian spectra).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_2d, check_positive

__all__ = [
    "Kernel",
    "GaussianKernel",
    "LaplacianKernel",
    "LinearKernel",
    "PolynomialKernel",
    "CosineKernel",
    "get_kernel",
]


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

    def diagonal(self, X) -> np.ndarray:
        """k(x, x) for each row of X without forming the full matrix.

        Generic fallback: evaluate the kernel on row chunks and keep each
        chunk's diagonal — one vectorized ``compute`` per chunk instead of
        one 1x1 Gram matrix per row. The working set stays bounded at
        ``chunk x chunk``; subclasses with a closed form override this with
        an O(n) expression.
        """
        X = check_2d(X)
        n = X.shape[0]
        chunk = 256
        if n <= chunk:
            return np.diagonal(self.compute(X, X)).copy()
        out = np.empty(n)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            out[start:stop] = np.diagonal(self.compute(X[start:stop], X[start:stop]))
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

    def diagonal(self, X):
        X = check_2d(X)
        return np.ones(X.shape[0])


class LaplacianKernel(Kernel):
    """``exp(-||x - y||_1 / sigma)`` — heavier tails than the Gaussian."""

    unit_range = True

    def __init__(self, sigma: float = 1.0):
        check_positive(sigma, name="sigma")
        self.sigma = float(sigma)

    def compute(self, X, Y):
        l1 = np.abs(X[:, None, :] - Y[None, :, :]).sum(axis=2)
        return np.exp(-l1 / self.sigma)

    def diagonal(self, X):
        X = check_2d(X)
        return np.ones(X.shape[0])


class LinearKernel(Kernel):
    """Plain inner product ``x . y``."""

    def compute(self, X, Y):
        return X @ Y.T

    def diagonal(self, X):
        X = check_2d(X)
        return np.einsum("ij,ij->i", X, X)


class PolynomialKernel(Kernel):
    """``(gamma x.y + coef0)^degree``; PSD when gamma > 0, coef0 >= 0."""

    def __init__(self, degree: int = 3, gamma: float = 1.0, coef0: float = 1.0):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        check_positive(gamma, name="gamma")
        if coef0 < 0:
            raise ValueError(f"coef0 must be >= 0, got {coef0}")
        self.degree = int(degree)
        self.gamma = float(gamma)
        self.coef0 = float(coef0)

    def compute(self, X, Y):
        return (self.gamma * (X @ Y.T) + self.coef0) ** self.degree

    def diagonal(self, X):
        X = check_2d(X)
        return (self.gamma * np.einsum("ij,ij->i", X, X) + self.coef0) ** self.degree


class CosineKernel(Kernel):
    """Cosine similarity; the natural kernel for tf-idf document vectors."""

    def compute(self, X, Y):
        xn = np.linalg.norm(X, axis=1, keepdims=True)
        yn = np.linalg.norm(Y, axis=1, keepdims=True)
        xn = np.where(xn == 0, 1.0, xn)
        yn = np.where(yn == 0, 1.0, yn)
        return (X / xn) @ (Y / yn).T

    def diagonal(self, X):
        X = check_2d(X)
        return np.where(np.linalg.norm(X, axis=1) == 0, 0.0, 1.0)


_REGISTRY = {
    "gaussian": GaussianKernel,
    "rbf": GaussianKernel,
    "laplacian": LaplacianKernel,
    "linear": LinearKernel,
    "polynomial": PolynomialKernel,
    "cosine": CosineKernel,
}


def get_kernel(name: str, **params) -> Kernel:
    """Instantiate a kernel by registry name (``'gaussian'``, ``'linear'``, ...)."""
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; known: {sorted(set(_REGISTRY))}") from None
    return cls(**params)
