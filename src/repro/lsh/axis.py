"""The paper's axis-parallel random-projection LSH family (Section 3.2 / 4.2).

Each of the M hash bits compares one input dimension against a threshold:

* the dimension ("hyperplane") is drawn with probability proportional to its
  numerical span (Eq. 4), so widely dispersed dimensions — the ones that
  carry cluster structure — are preferred;
* the threshold is the k-d-tree-style splitting value of Eq. (5): build a
  20-bin histogram of the dimension, find the least-populated bin, and place
  the threshold at that bin's lower edge (a density valley, so near-by points
  rarely straddle it).

The paper's Algorithm 1 sets the bit to 1 when the feature value is *below*
the threshold; the polarity is irrelevant to bucketing (it relabels buckets),
and we follow Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lsh.hamming import pack_bits
from repro.utils.rng import as_rng
from repro.utils.validation import check_2d

__all__ = [
    "dimension_spans",
    "span_selection_probabilities",
    "histogram_valley_threshold",
    "AxisParallelHasher",
]

#: Number of histogram bins used by the paper's threshold rule (Eq. 5).
N_BINS = 20


def dimension_spans(X: np.ndarray) -> np.ndarray:
    """Numerical span (max - min) of each dimension (the paper's ``span[i]``)."""
    X = check_2d(X)
    return X.max(axis=0) - X.min(axis=0)


def span_selection_probabilities(spans: np.ndarray) -> np.ndarray:
    """Eq. (4): probability of picking each dimension, proportional to its span.

    Degenerate data where every dimension has zero span falls back to uniform
    selection so the hasher still produces (all-equal) signatures.
    """
    spans = np.asarray(spans, dtype=np.float64)
    if spans.ndim != 1:
        raise ValueError(f"spans must be 1-D, got shape {spans.shape}")
    if (spans < 0).any():
        raise ValueError("spans must be non-negative")
    total = spans.sum()
    if total == 0:
        return np.full(spans.shape[0], 1.0 / spans.shape[0])
    return spans / total


def histogram_valley_threshold(values: np.ndarray, n_bins: int = N_BINS) -> float:
    """Eq. (5): threshold at the lower edge of the least-populated histogram bin.

    ``threshold = min + s * span / n_bins`` where ``s`` is the index of the
    bin with the smallest count. Ties go to the lowest such bin, matching a
    left-to-right minimum scan. A zero-span dimension returns its constant
    value (every point then lands on the same side).

    When the least-populated bin is bin 0, its lower edge *is* the column
    minimum, so the resulting bit (``x <= min``) would be constant for every
    point except the exact minima — silently wasting one of the M signature
    bits. In that case the threshold falls back to the least-populated bin
    with an interior (non-degenerate) lower edge.

    A span too narrow (a few ulps) or too wide (past the float64 range) to
    cut into ``n_bins`` distinct finite bins has no histogram to read a
    valley from; the threshold is then the column's midpoint, which still
    lies in ``[min, max]``.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("values must be non-empty")
    lo = values.min()
    hi = values.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("values must be finite")
    if lo == hi:
        return float(lo)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        edges = np.linspace(lo, hi, n_bins + 1)
    if not np.isfinite(span) or (edges[:-1] >= edges[1:]).any():
        return float(np.clip(lo / 2 + hi / 2, lo, hi))
    counts, _ = np.histogram(values, bins=n_bins, range=(lo, hi))
    s = int(np.argmin(counts))
    if s == 0 and n_bins > 1:
        s = 1 + int(np.argmin(counts[1:]))
    return float(lo + s * span / n_bins)


@dataclass(frozen=True)
class _FittedParams:
    """Per-bit hash parameters learned from the data."""

    dimensions: np.ndarray  # (M,) int — hyperplane (dimension index) per bit
    thresholds: np.ndarray  # (M,) float — split threshold per bit


class AxisParallelHasher:
    """M-bit axis-parallel LSH with span-weighted dimension selection.

    Parameters
    ----------
    n_bits:
        M, the signature length. The DASC default is
        ``floor(log2(N) / 2) - 1`` (Section 5.4), computed by
        :func:`repro.core.config.default_n_bits`.
    dimension_policy:
        ``"span_weighted"`` (Eq. 4, the paper's rule), ``"top_span"``
        (Section 4.2's deterministic variant: the M largest-span dimensions),
        or ``"uniform"`` (ablation baseline).
    threshold_policy:
        ``"histogram_valley"`` (Eq. 5, the paper's rule) or ``"median"``
        (ablation baseline: balanced splits).
    n_bins:
        Histogram bins for the valley rule (paper uses 20).
    seed:
        Randomness for dimension selection.
    """

    def __init__(
        self,
        n_bits: int,
        *,
        dimension_policy: str = "span_weighted",
        threshold_policy: str = "histogram_valley",
        n_bins: int = N_BINS,
        seed=None,
    ):
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        if dimension_policy not in ("span_weighted", "top_span", "uniform"):
            raise ValueError(f"unknown dimension_policy {dimension_policy!r}")
        if threshold_policy not in ("histogram_valley", "median"):
            raise ValueError(f"unknown threshold_policy {threshold_policy!r}")
        self.n_bits = int(n_bits)
        self.dimension_policy = dimension_policy
        self.threshold_policy = threshold_policy
        self.n_bins = int(n_bins)
        self._rng = as_rng(seed)
        self._params: _FittedParams | None = None

    # -- fitting -----------------------------------------------------------

    def fit(self, X) -> "AxisParallelHasher":
        """Learn the per-bit (dimension, threshold) pairs from the data."""
        X = check_2d(X)
        dims = self._select_dimensions(X)
        thresholds = np.empty(self.n_bits, dtype=np.float64)
        for j, dim in enumerate(dims):
            col = X[:, dim]
            if self.threshold_policy == "histogram_valley":
                thresholds[j] = histogram_valley_threshold(col, self.n_bins)
            else:
                thresholds[j] = float(np.median(col))
        self._params = _FittedParams(dimensions=dims, thresholds=thresholds)
        return self

    def _select_dimensions(self, X: np.ndarray) -> np.ndarray:
        d = X.shape[1]
        spans = dimension_spans(X)
        if self.dimension_policy == "top_span":
            # Section 4.2: rank dimensions by span, take the top M
            # (cycling when M > d so every bit still gets a dimension).
            order = np.argsort(spans)[::-1]
            reps = int(np.ceil(self.n_bits / d))
            return np.tile(order, reps)[: self.n_bits].astype(np.int64)
        if self.dimension_policy == "uniform":
            probs = np.full(d, 1.0 / d)
        else:
            probs = span_selection_probabilities(spans)
        return self._rng.choice(d, size=self.n_bits, p=probs).astype(np.int64)

    # -- hashing -----------------------------------------------------------

    @property
    def dimensions_(self) -> np.ndarray:
        """Fitted hyperplane (dimension index) per bit."""
        self._require_fitted()
        return self._params.dimensions

    @property
    def thresholds_(self) -> np.ndarray:
        """Fitted threshold per bit."""
        self._require_fitted()
        return self._params.thresholds

    def hash_bits(self, X) -> np.ndarray:
        """Return the (n, M) 0/1 bit matrix for ``X``.

        Algorithm 1's rule: bit = 1 when ``x[dim] <= threshold``, else 0.
        """
        self._require_fitted()
        X = check_2d(X)
        cols = X[:, self._params.dimensions]  # (n, M)
        return (cols <= self._params.thresholds).astype(np.uint8)

    def hash(self, X) -> np.ndarray:
        """Return packed uint64 signatures for ``X``."""
        return pack_bits(self.hash_bits(X))

    def fit_hash(self, X) -> np.ndarray:
        """Convenience: :meth:`fit` then :meth:`hash` on the same data."""
        return self.fit(X).hash(X)

    def _require_fitted(self) -> None:
        if self._params is None:
            raise RuntimeError("hasher is not fitted; call fit() first")
