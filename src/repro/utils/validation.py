"""Input validation shared across estimators and metrics."""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_2d",
    "check_labels",
    "check_positive",
    "check_square",
]


def check_2d(X, *, name: str = "X", dtype=np.float64, ensure_finite: bool = True) -> np.ndarray:
    """Validate a 2-D, non-empty sample matrix and return it as an array.

    With ``ensure_finite`` (the default) NaN/inf features are rejected up
    front with an error naming the offending column(s) — otherwise they
    flow through span/histogram statistics into selection probabilities
    and surface as an opaque ``rng.choice`` failure deep in the hasher.
    """
    arr = np.asarray(X, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if ensure_finite:
        finite = np.isfinite(arr)
        if not finite.all():
            bad_cols = np.flatnonzero(~finite.all(axis=0))
            n_bad = int((~finite).sum())
            shown = ", ".join(map(str, bad_cols[:8]))
            suffix = ", ..." if bad_cols.size > 8 else ""
            raise ValueError(
                f"{name} contains {n_bad} non-finite value(s) (NaN/inf) in "
                f"column(s) [{shown}{suffix}]; clean or impute these features "
                "before clustering"
            )
    return arr


def check_square(S, *, name: str = "S") -> np.ndarray:
    """Validate a square 2-D matrix."""
    arr = np.asarray(S, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def check_labels(labels, *, n_samples: int | None = None, name: str = "labels") -> np.ndarray:
    """Validate an integer label vector (optionally of a required length)."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise ValueError(f"{name} must be integers")
    if n_samples is not None and arr.shape[0] != n_samples:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {n_samples}")
    return arr.astype(np.int64, copy=False)


def check_positive(value, *, name: str = "value", strict: bool = True):
    """Validate a (strictly) positive scalar."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value
