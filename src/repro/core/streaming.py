"""Incremental (split-by-split) DASC.

Section 5.1: "the partitioning step allows our DASC algorithm to process
very large scale data sets, because the data partitions (or splits) are
incrementally processed, split by split" and "[d]istributed datasets can be
thought of [as] huge datasets with splits stored on different machines,
where the output hashes represent the keys that are used to exchange
datapoints between different nodes."

:class:`StreamingDASC` realises that mode of operation: hash parameters and
the kernel bandwidth are fitted once on a sample, then arbitrarily many
chunks are absorbed one at a time, each hashed on arrival. Hashing is how
the stream reaches the bucket partition, not a second clustering algorithm:
:meth:`StreamingDASC.finalize` hands the absorbed points, their signatures
and the calibrated hasher to ``DASC``'s own stages after hashing, which
build one Gram block at a time (one per worker under ``n_jobs``), so beyond
the absorbed points peak memory is O(max bucket^2), not O(N^2).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.buckets import Buckets, make_buckets
from repro.core.config import DASCConfig
from repro.core.dasc import DASC
from repro.core.signatures import make_hasher
from repro.kernels.functions import GaussianKernel
from repro.observability import get_tracer
from repro.utils.validation import check_2d

__all__ = ["StreamingDASC"]


class StreamingDASC:
    """DASC over a stream of data chunks.

    Parameters
    ----------
    n_clusters:
        Global cluster budget K (``None``: Eq. 15 from the total absorbed).
    config:
        Standard :class:`DASCConfig`; ``n_bits`` and ``sigma`` are resolved
        against the *calibration sample*, so fix them explicitly when the
        stream is far larger than the sample.

    Contract: calibrated on ``X`` and fed the rows of ``X`` in order, in any
    chunking, :meth:`finalize` returns ``DASC.fit(X)``'s labels byte for
    byte under the same config, and :meth:`export_model` the model
    ``DASC.export_model(X)`` builds. :meth:`partial_fit` copies each chunk,
    so a caller may reuse one buffer for every chunk.

    Usage
    -----
    >>> sd = StreamingDASC(n_clusters=8, config=DASCConfig(n_bits=6, seed=0))
    >>> sd.calibrate(first_chunk)
    >>> for chunk in chunks:
    ...     sd.partial_fit(chunk)
    >>> labels = sd.finalize()   # aligned with absorption order
    """

    def __init__(self, n_clusters: int | None = None, *, config: DASCConfig | None = None):
        self.config = replace(config) if config is not None else DASCConfig()
        if n_clusters is not None:
            self.config.n_clusters = n_clusters
        self._hasher = None
        self._sigma: float | None = None
        # The absorbed chunks and their signatures, in absorption order.
        self._chunks: list[np.ndarray] = []
        self._signatures: list[np.ndarray] = []
        self._buckets: Buckets | None = None
        # The DASC whose stages the last finalize() ran.
        self._dasc: DASC | None = None
        self.labels_: np.ndarray | None = None
        self.n_clusters_: int | None = None

    # -- stream lifecycle -----------------------------------------------------

    def calibrate(self, sample) -> "StreamingDASC":
        """Fit hash parameters and the kernel bandwidth on a sample.

        Must run before :meth:`partial_fit`; the sample itself is *not*
        absorbed (pass it to :meth:`partial_fit` too if it is stream data).
        An invalid explicit ``sigma`` raises ``ValueError`` here.
        """
        sample = check_2d(sample)
        with get_tracer().span("streaming.calibrate", n_sample=sample.shape[0]) as span:
            n_bits = self.config.resolve_n_bits(sample.shape[0])
            self._sigma = self.config.resolve_sigma(sample)
            self._hasher = make_hasher(self.config, n_bits).fit(sample)
            span.set("n_bits", n_bits)
            span.set("sigma", self._sigma)
        return self

    def partial_fit(self, chunk) -> "StreamingDASC":
        """Absorb one chunk: keep a copy of its points and their signatures."""
        if self._hasher is None:
            raise RuntimeError("call calibrate() before partial_fit()")
        chunk = np.array(check_2d(chunk))
        with get_tracer().span("streaming.absorb_chunk", n_points=chunk.shape[0]) as span:
            self._signatures.append(self._hasher.hash(chunk))
            self._chunks.append(chunk)
            self._buckets = None
            span.set("n_absorbed", self.n_absorbed)
        return self

    @property
    def n_absorbed(self) -> int:
        """Points absorbed so far."""
        return sum(c.shape[0] for c in self._chunks)

    def _joined(self) -> tuple[np.ndarray, np.ndarray]:
        """The absorbed points in absorption order and their signatures.

        The joined arrays replace the chunk lists, so the points are held once.
        """
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
            self._signatures = [np.concatenate(self._signatures)]
        return self._chunks[0], self._signatures[0]

    @property
    def n_buckets(self) -> int:
        """Buckets :meth:`finalize` would cluster now."""
        return int(self.bucket_sizes().size)

    def bucket_sizes(self) -> np.ndarray:
        """Sizes of the buckets :meth:`finalize` would cluster now (descending)."""
        if not self._chunks:
            return np.zeros(0, dtype=np.int64)
        if self._buckets is None:
            self._buckets = make_buckets(self._joined()[1], self._hasher.n_bits, self.config)
        return np.sort(self._buckets.sizes)[::-1]

    def peak_block_bytes(self) -> int:
        """Largest Gram block :meth:`finalize` will build, at 4 bytes an entry (Eq. 12)."""
        largest = int(self.bucket_sizes().max(initial=0))
        return largest * largest * 4

    # -- finalisation -----------------------------------------------------------

    def finalize(self) -> np.ndarray:
        """Cluster every bucket and return labels in absorption order.

        Runs every stage of ``DASC.fit`` after hashing (bucketing,
        allocation, the per-bucket tasks, on a fork pool under ``n_jobs``,
        refine and the invariant checks) on a ``DASC`` over this config with
        the calibrated Gaussian kernel, given the absorbed points, their
        signatures and the calibrated hasher.
        """
        if not self._chunks:
            raise RuntimeError("no data absorbed; call partial_fit() first")
        X, signatures = self._joined()
        dasc = DASC(config=self.config, kernel=GaussianKernel(self._sigma))
        with get_tracer().span("streaming.finalize", n_absorbed=X.shape[0]) as span:
            dasc._fit_hashed(X, signatures, self._hasher, span)
        self._dasc = dasc
        self._buckets = dasc.buckets_
        self.labels_ = dasc.labels_
        self.n_clusters_ = dasc.n_clusters_
        return self.labels_

    # -- serving export ---------------------------------------------------------

    def export_model(self):
        """Freeze the finalized clustering into a servable ``DASCModel``.

        The model ``DASC.export_model`` builds from the estimator
        :meth:`finalize` ran, with ``meta["source"] == "streaming"``: a
        training point re-presented to it routes by exact signature to its
        bucket and reproduces its finalize label.
        """
        if self.labels_ is None:
            raise RuntimeError("call finalize() before export_model()")
        if self.n_absorbed != self.labels_.shape[0]:
            raise RuntimeError("chunks were absorbed after finalize(); call finalize() again")
        model = self._dasc.export_model(self._joined()[0])
        model.meta["source"] = "streaming"
        return model
