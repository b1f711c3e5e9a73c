"""Incremental (split-by-split) DASC.

Section 5.1: "the partitioning step allows our DASC algorithm to process
very large scale data sets, because the data partitions (or splits) are
incrementally processed, split by split" and "[d]istributed datasets can be
thought of [as] huge datasets with splits stored on different machines,
where the output hashes represent the keys that are used to exchange
datapoints between different nodes."

:class:`StreamingDASC` realises that mode of operation: hash parameters and
the kernel bandwidth are fitted once on a sample, then arbitrarily many
chunks are absorbed one at a time, each hashed on arrival. The final
clustering runs over the buckets ``DASC`` builds
(:func:`~repro.core.buckets.make_buckets`), one Gram block at a time, so
beyond the absorbed points peak memory is O(max bucket^2), not O(N^2).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.allocation import allocate_clusters, choose_k_eigengap
from repro.core.buckets import Buckets, make_buckets
from repro.core.config import DASCConfig
from repro.core.refine import merge_clusters_to_k
from repro.core.signatures import make_hasher
from repro.kernels.functions import GaussianKernel
from repro.kernels.matrix import gram_matrix_auto
from repro.observability import get_tracer
from repro.spectral.bucket import BucketClustering, bucket_seed, solve_bucket
from repro.utils.validation import check_2d
from repro.verify.invariants import check_buckets, check_labels_range, validation_enabled

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
        self._clusterings: list[BucketClustering] = []
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
            self._n_bits = self.config.resolve_n_bits(sample.shape[0])
            self._sigma = self.config.resolve_sigma(sample)
            self._hasher = make_hasher(self.config, self._n_bits).fit(sample)
            span.set("n_bits", self._n_bits)
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

    def _partition(self) -> tuple[np.ndarray, np.ndarray, Buckets]:
        """``(X, signatures, buckets)``: the absorbed points in absorption
        order, their signatures, and the partition :meth:`finalize` clusters.
        The joined arrays replace the chunk lists, so the points are held once."""
        if self._buckets is None:
            self._chunks = [np.concatenate(self._chunks)]
            self._signatures = [np.concatenate(self._signatures)]
            self._buckets = make_buckets(self._signatures[0], self._n_bits, self.config)
        return self._chunks[0], self._signatures[0], self._buckets

    @property
    def n_buckets(self) -> int:
        """Buckets :meth:`finalize` would cluster now."""
        return int(self.bucket_sizes().size)

    def bucket_sizes(self) -> np.ndarray:
        """Sizes of the buckets :meth:`finalize` would cluster now (descending)."""
        if not self._chunks:
            return np.zeros(0, dtype=np.int64)
        return np.sort(self._partition()[2].sizes)[::-1]

    def peak_block_bytes(self) -> int:
        """Largest Gram block :meth:`finalize` will build, at 4 bytes an entry (Eq. 12)."""
        largest = int(self.bucket_sizes().max(initial=0))
        return largest * largest * 4

    # -- finalisation -----------------------------------------------------------

    def finalize(self) -> np.ndarray:
        """Cluster every bucket and return labels in absorption order.

        Buckets are clustered serially in bucket order, each by its own
        :func:`~repro.spectral.bucket.solve_bucket` task, so at most one
        Gram block is alive at a time. Under ``allocation="eigengap"`` each
        block is built twice, because the allocation needs every bucket's
        estimate before any is clustered.
        """
        if not self._chunks:
            raise RuntimeError("no data absorbed; call partial_fit() first")
        X, signatures, buckets = self._partition()
        validate = validation_enabled(self.config.validate)
        if validate:
            check_buckets(
                buckets, X.shape[0], point_signatures=signatures, stage="streaming.bucket"
            )
        tracer = get_tracer()
        with tracer.span(
            "streaming.finalize", n_absorbed=X.shape[0], n_buckets=buckets.n_buckets
        ) as span:
            if tracer.enabled:
                hist = tracer.metrics.histogram("streaming.bucket_size")
                for size in buckets.sizes:
                    hist.observe(int(size))
                tracer.metrics.gauge("streaming.peak_block_bytes").set(self.peak_block_bytes())
            k_total = self.config.resolve_n_clusters(X.shape[0])
            kernel = GaussianKernel(self._sigma)
            zero_diagonal = self.config.zero_diagonal
            members = [idx for _, idx in buckets.iter_members()]
            eigengap_k = None
            if self.config.allocation == "eigengap":
                eigengap_k = [
                    choose_k_eigengap(
                        gram_matrix_auto(X[idx], kernel, zero_diagonal=zero_diagonal), k_total
                    )
                    for idx in members
                ]
            ks = allocate_clusters(
                buckets.sizes, k_total, policy=self.config.allocation, eigengap_k=eigengap_k
            )
            labels = np.full(X.shape[0], -1, dtype=np.int64)
            clusterings = []
            offset = 0
            for b, idx in enumerate(members):
                clustering = solve_bucket(
                    X[idx], kernel, int(ks[b]), bucket_seed(self.config.seed, b),
                    zero_diagonal=zero_diagonal, eig_backend=self.config.eig_backend,
                    kmeans_n_init=self.config.kmeans_n_init, validate=validate, bucket_id=b,
                )
                clusterings.append(clustering)
                labels[idx] = offset + clustering.labels
                offset += int(ks[b])
            if (labels < 0).any():
                raise RuntimeError(
                    f"{int((labels < 0).sum())} points were never assigned a bucket cluster"
                )
            if self.config.refine_to_k and offset > k_total:
                labels = merge_clusters_to_k(X, labels, k_total)
                offset = k_total
            if validate:
                check_labels_range(labels, offset, stage="streaming.labels")
            span.set("n_clusters", offset)
        self.labels_ = labels
        self.n_clusters_ = offset
        self._clusterings = clusterings
        return labels

    # -- serving export ---------------------------------------------------------

    def export_model(self):
        """Freeze the finalized clustering into a servable ``DASCModel``.

        Reads the per-bucket Nyström artifacts :meth:`finalize` kept (no
        Gram, eigensolver or K-means work) and assembles them as
        ``DASC.export_model`` does, so a training point re-presented to the
        exported model routes by exact signature to its bucket and
        reproduces its finalize label.
        """
        from repro.serving.model import assemble_model

        if self.labels_ is None:
            raise RuntimeError("call finalize() before export_model()")
        if self.n_absorbed != self.labels_.shape[0]:
            raise RuntimeError("chunks were absorbed after finalize(); call finalize() again")
        X, signatures, buckets = self._partition()
        return assemble_model(
            X,
            signatures,
            buckets,
            self._clusterings,
            self.labels_,
            hasher=self._hasher,
            kernel=GaussianKernel(self._sigma),
            zero_diagonal=self.config.zero_diagonal,
            n_clusters=self.n_clusters_,
            meta={
                "source": "streaming",
                "n_train": int(X.shape[0]),
                "seed": self.config.seed,
                "sigma": self._sigma,
                "n_bits": self._n_bits,
            },
        )
