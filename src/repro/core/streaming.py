"""Incremental (split-by-split) DASC.

Section 5.1: "the partitioning step allows our DASC algorithm to process
very large scale data sets, because the data partitions (or splits) are
incrementally processed, split by split" and "[d]istributed datasets can be
thought of [as] huge datasets with splits stored on different machines,
where the output hashes represent the keys that are used to exchange
datapoints between different nodes."

:class:`StreamingDASC` realises that mode of operation: hash parameters are
fitted once on a sample (or the first chunk), then arbitrarily many chunks
are absorbed one at a time — each chunk's points are hashed and appended to
their buckets, and nothing larger than a bucket is ever materialised. The
final clustering runs per bucket on demand. Peak memory is O(max bucket^2)
instead of O(N^2), independent of how many chunks streamed through.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import numpy as np

from repro.core.allocation import allocate_clusters, choose_k_eigengap
from repro.core.config import DASCConfig
from repro.core.refine import merge_clusters_to_k
from repro.core.signatures import make_hasher
from repro.kernels.bandwidth import median_heuristic
from repro.kernels.functions import GaussianKernel
from repro.kernels.matrix import gram_matrix
from repro.observability import get_tracer
from repro.spectral.bucket import BucketClustering, bucket_seed, cluster_bucket
from repro.utils.validation import check_2d
from repro.verify.invariants import validation_enabled

__all__ = ["StreamingDASC"]


class StreamingDASC:
    """DASC over a stream of data chunks.

    Parameters
    ----------
    n_clusters:
        Global cluster budget K (``None``: Eq. 15 from the total absorbed).
    config:
        Standard :class:`DASCConfig`; ``n_bits`` is resolved against the
        *calibration sample*, so fix it explicitly when the stream is far
        larger than the sample.

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
        # Per raw signature: a list of 2-D chunk slices (points) and a
        # matching list of 1-D absorption-index arrays. Concatenated they
        # give the bucket's points in absorption order.
        self._bucket_points: dict[int, list[np.ndarray]] = defaultdict(list)
        self._bucket_order: dict[int, list[np.ndarray]] = defaultdict(list)
        self._n_seen = 0
        self._clusterings: list[BucketClustering] = []
        self.labels_: np.ndarray | None = None
        self.n_clusters_: int | None = None

    # -- stream lifecycle -----------------------------------------------------

    def calibrate(self, sample) -> "StreamingDASC":
        """Fit hash parameters and the kernel bandwidth on a sample.

        Must run before :meth:`partial_fit`; the sample itself is *not*
        absorbed (pass it to :meth:`partial_fit` too if it is stream data).
        """
        sample = check_2d(sample)
        with get_tracer().span("streaming.calibrate", n_sample=sample.shape[0]) as span:
            n_bits = self.config.resolve_n_bits(sample.shape[0])
            self._hasher = make_hasher(self.config, n_bits)
            self._hasher.fit(sample)
            self._n_bits = n_bits
            sigma = self.config.sigma
            if sigma is None:
                sigma = median_heuristic(sample, seed=self.config.seed)
            self._sigma = float(sigma)
            span.set("n_bits", n_bits)
            span.set("sigma", self._sigma)
        return self

    def partial_fit(self, chunk) -> "StreamingDASC":
        """Absorb one chunk: hash its points into the bucket store."""
        if self._hasher is None:
            raise RuntimeError("call calibrate() before partial_fit()")
        chunk = check_2d(chunk)
        with get_tracer().span("streaming.absorb_chunk", n_points=chunk.shape[0]) as span:
            signatures = self._hasher.hash(chunk)
            # One stable argsort groups the chunk by signature; each bucket
            # receives a single 2-D slice whose rows keep chunk order — the
            # same per-bucket point order the per-row append produced, at
            # O(n log n) instead of n dict/list operations.
            order = np.argsort(signatures, kind="stable")
            unique, starts = np.unique(signatures[order], return_index=True)
            bounds = np.append(starts, signatures.shape[0])
            for key, lo, hi in zip(unique.tolist(), starts.tolist(), bounds[1:].tolist()):
                rows = order[lo:hi]
                self._bucket_points[key].append(chunk[rows])
                self._bucket_order[key].append(self._n_seen + rows)
            self._n_seen += chunk.shape[0]
            span.set("n_absorbed", self._n_seen)
            span.set("n_buckets", len(self._bucket_points))
        return self

    @property
    def n_absorbed(self) -> int:
        """Points absorbed so far."""
        return self._n_seen

    @property
    def n_buckets(self) -> int:
        """Occupied buckets so far."""
        return len(self._bucket_points)

    def _bucket_size(self, key: int) -> int:
        return sum(c.shape[0] for c in self._bucket_points[key])

    def bucket_sizes(self) -> np.ndarray:
        """Sizes of the occupied buckets (descending)."""
        return np.sort([self._bucket_size(k) for k in self._bucket_points])[::-1].astype(np.int64)

    def peak_block_bytes(self) -> int:
        """Largest single Gram block the finalize step will allocate."""
        if not self._bucket_points:
            return 0
        largest = max(self._bucket_size(k) for k in self._bucket_points)
        return largest * largest * 4

    # -- finalisation -----------------------------------------------------------

    def finalize(self) -> np.ndarray:
        """Cluster every bucket and return labels in absorption order.

        Small buckets (below ``config.min_bucket_size``) are merged into
        one residual group and clustered together, mirroring the batch
        pipeline's folding without needing the full signature table.
        """
        if self._n_seen == 0:
            raise RuntimeError("no data absorbed; call partial_fit() first")
        tracer = get_tracer()
        with tracer.span(
            "streaming.finalize", n_absorbed=self._n_seen, n_buckets=len(self._bucket_points)
        ) as span:
            if tracer.enabled:
                hist = tracer.metrics.histogram("streaming.bucket_size")
                for key in self._bucket_points:
                    hist.observe(self._bucket_size(key))
                tracer.metrics.gauge("streaming.peak_block_bytes").set(self.peak_block_bytes())
            labels = self._finalize_impl()
            span.set("n_clusters", self.n_clusters_)
        return labels

    def _assemble_groups(self):
        """``(groups, table)`` — the deterministic finalize work list.

        ``groups`` holds ``(points, absorption_indices)`` per surviving
        bucket (raw-signature order, small buckets swept into one trailing
        residual group); ``table`` maps every occupied raw signature to its
        group index, which is what the serving plane routes against.
        """
        groups: list[tuple[np.ndarray, np.ndarray]] = []
        table: dict[int, int] = {}
        residual_pts: list[np.ndarray] = []
        residual_idx: list[np.ndarray] = []
        residual_keys: list[int] = []
        for key in sorted(self._bucket_points):
            chunks = self._bucket_points[key]
            if self._bucket_size(key) < self.config.min_bucket_size:
                residual_pts.extend(chunks)
                residual_idx.extend(self._bucket_order[key])
                residual_keys.append(key)
            else:
                table[key] = len(groups)
                groups.append((np.vstack(chunks), np.concatenate(self._bucket_order[key])))
        if residual_pts:
            for key in residual_keys:
                table[key] = len(groups)
            groups.append((np.vstack(residual_pts), np.concatenate(residual_idx)))
        return groups, table

    def _finalize_impl(self) -> np.ndarray:
        k_total = self.config.resolve_n_clusters(self._n_seen)
        groups, _ = self._assemble_groups()
        kernel = GaussianKernel(self._sigma)
        sizes = np.array([g[0].shape[0] for g in groups], dtype=np.int64)
        policy = "proportional" if self.config.allocation == "eigengap" else self.config.allocation
        ks = allocate_clusters(sizes, k_total, policy=policy)

        labels = np.full(self._n_seen, -1, dtype=np.int64)
        clusterings = []
        offset = 0
        validate = validation_enabled(self.config.validate)
        for g, ((X_b, idx), k_floor) in enumerate(zip(groups, ks)):
            n_b, k_i = X_b.shape[0], int(k_floor)
            S = None
            if n_b > 1:
                S = gram_matrix(X_b, kernel, zero_diagonal=self.config.zero_diagonal)
                if self.config.allocation == "eigengap":
                    # Data-driven K_i with the proportional share as a floor
                    # (mirrors the batch estimator's under-allocation guard).
                    k_i = max(k_i, choose_k_eigengap(S, min(k_total, n_b)))
            clustering = cluster_bucket(
                n_b, k_i, S, bucket_seed(self.config.seed, g),
                eig_backend=self.config.eig_backend, kmeans_n_init=self.config.kmeans_n_init,
                validate=validate,
            )
            clusterings.append(clustering)
            labels[idx] = offset + clustering.labels
            offset += k_i
        if (labels < 0).any():
            raise RuntimeError(
                f"{int((labels < 0).sum())} points were never assigned a bucket cluster"
            )
        if self.config.refine_to_k and offset > k_total:
            all_points = np.concatenate([g[0] for g in groups])
            all_idx = np.concatenate([g[1] for g in groups])
            order = np.argsort(all_idx)
            labels = merge_clusters_to_k(all_points[order], labels, k_total)
            offset = k_total
        self.labels_ = labels
        self.n_clusters_ = offset
        self._clusterings = clusterings
        return labels

    # -- serving export ---------------------------------------------------------

    def export_model(self):
        """Freeze the finalized clustering into a servable ``DASCModel``.

        Reads the per-group Nyström artifacts :meth:`finalize` kept (no
        Gram, eigensolver or K-means work), so a training point re-presented
        to the exported model routes by exact signature to its group and
        reproduces its finalize label.
        """
        from repro.serving.model import assemble_model, bucket_model

        if self.labels_ is None:
            raise RuntimeError("call finalize() before export_model()")
        if self._n_seen != self.labels_.shape[0]:
            raise RuntimeError("chunks were absorbed after finalize(); call finalize() again")
        groups, table = self._assemble_groups()
        bucket_models = [
            bucket_model(X_b, clustering, self.labels_[idx])
            for (X_b, idx), clustering in zip(groups, self._clusterings)
        ]
        all_points = np.concatenate([g[0] for g in groups])
        all_idx = np.concatenate([g[1] for g in groups])
        order = np.argsort(all_idx)
        return assemble_model(
            hasher=self._hasher,
            kernel=GaussianKernel(self._sigma),
            zero_diagonal=self.config.zero_diagonal,
            bucket_models=bucket_models,
            table=table,
            labels=self.labels_,
            X=all_points[order],
            n_clusters=self.n_clusters_,
            meta={
                "source": "streaming",
                "n_train": int(self._n_seen),
                "seed": self.config.seed,
                "sigma": self._sigma,
                "n_bits": self._n_bits,
            },
        )
