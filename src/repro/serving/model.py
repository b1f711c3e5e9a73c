"""The servable model artifact: out-of-sample assignment for a fitted DASC.

The training pipeline ends at ``fit_predict``; serving answers the question
"which cluster does a *new* point belong to?" without re-running the
MapReduce job. A :class:`DASCModel` freezes everything assignment needs:

* the fitted :class:`~repro.lsh.axis.AxisParallelHasher` (so new points
  land in the same signature space),
* a signature table mapping every training signature to its final bucket,
* per bucket: the landmark points, the Nyström artifacts (degrees,
  eigenvector basis, eigenvalues, K-means centroids) and the local→global
  label map,
* the kernel and its ``zero_diagonal`` convention,
* global per-cluster centroids as the fallback of last resort.

Routing ladder (per query, cheapest rung first):

1. **exact** — the query's signature is in the table: it goes to the same
   bucket a training twin went to.
2. **near** — Hamming distance 1 to a table signature: the Eq.-6 merge
   rule applied at serving time (training merged buckets whose signatures
   differ by one bit, so a one-bit miss is the same neighbourhood).
3. **nearest** — unseen signature: nearest table signature by Hamming
   distance (ties: largest training bucket, then lowest signature — the
   fold-small-buckets convention).
4. **fallback** — no usable bucket (empty table, ``max_route_distance``
   exceeded, or an unmapped local cluster): nearest global centroid in
   input space.

Inside a bucket the assignment is the Nyström out-of-sample extension
(Fowlkes et al.; the paper's own NYST baseline): with ``k(x) = kernel(x,
landmarks)`` and training degrees ``d``,

    l_j(x) = k_j(x) / sqrt(d(x) * d_j),     d(x) = sum_j k_j(x)
    y(x)   = row_normalize( (l(x) @ V) / lambda )

which extends each eigenvector of the bucket's normalized affinity
``L = D^{-1/2} S D^{-1/2}`` to the query; the label is the nearest stored
K-means centroid, mapped through the bucket's local→global table.

Self-consistency contract: a training point re-presented to the model
routes **exact** and its ``l(x)`` row equals its training Laplacian row
(the ``zero_diagonal`` convention is re-applied to landmark-coincident
queries), so ``(l @ V) / lambda`` reproduces its own embedding row to
solver precision and the argmin over centroids returns the fit label
bit-identically. The differential harness checks exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels.functions import Kernel
from repro.kernels.matrix import pairwise_sq_distances
from repro.lsh.hamming import hamming_distance
from repro.mapreduce.storage import CorruptObjectError, ResilientStore, RetryPolicy
from repro.spectral.bucket import BucketClustering
from repro.spectral.embedding import row_normalize
from repro.utils.validation import check_2d

__all__ = [
    "MODEL_FORMAT_VERSION",
    "ROUTE_EXACT",
    "ROUTE_NEAR",
    "ROUTE_NEAREST",
    "ROUTE_FALLBACK",
    "ROUTE_NAMES",
    "BucketModel",
    "DASCModel",
    "assemble_model",
    "bucket_model",
]

#: Payload schema version; bump on any incompatible layout change.
MODEL_FORMAT_VERSION = 1
_PAYLOAD_FORMAT = "repro.dasc-model"

#: Routing-method codes, in ladder order (see module docstring).
ROUTE_EXACT, ROUTE_NEAR, ROUTE_NEAREST, ROUTE_FALLBACK = 0, 1, 2, 3
ROUTE_NAMES = ("exact", "near", "nearest", "fallback")

#: Eigenvalues this close to zero carry no usable Nyström coordinate; the
#: division is clamped instead of exploding into noise.
_EIGENVALUE_FLOOR = 1e-12


@dataclass
class BucketModel:
    """Everything needed to assign a query routed to one training bucket.

    ``mode`` mirrors the three fit-time cases:

    * ``"nystrom"`` (``1 < k_i < n_i``) — full spectral block; carries the
      Nyström artifacts.
    * ``"const"`` (``k_i == 1``) — the whole bucket is one cluster.
    * ``"nn"`` (``k_i >= n_i``) — every landmark was its own cluster;
      queries take the label of their nearest landmark.
    """

    mode: str
    landmarks: np.ndarray            # (n_i, d) the bucket's training points
    labels: np.ndarray | None = None  # (n_i,) global labels of the landmarks
    label_map: np.ndarray | None = None  # (k_i,) local cluster -> global label
    d_inv_sqrt: np.ndarray | None = None  # (n_i,) 1/sqrt(training degrees)
    basis: np.ndarray | None = None       # (n_i, k_i) eigenvectors of L
    eigenvalues: np.ndarray | None = None  # (k_i,) matching eigenvalues
    centroids: np.ndarray | None = None    # (k_i, k_i) embedding centroids

    @property
    def n_landmarks(self) -> int:
        return int(self.landmarks.shape[0])


def bucket_model(landmarks, clustering: BucketClustering, final) -> BucketModel:
    """One bucket's serving artifact, read off its fit-time clustering.

    ``clustering`` is what :func:`repro.spectral.bucket.cluster_bucket`
    returned for the bucket's training points ``landmarks``; ``final`` are
    the global labels the full pipeline (offsets + refine) gave the same
    points. The refine step merges whole clusters, so each local cluster
    must map to exactly one global label — verified here, because a silent
    violation would serve wrong labels forever.
    """
    final = np.asarray(final, dtype=np.int64)
    bm = BucketModel(
        mode=clustering.mode,
        landmarks=np.asarray(landmarks, dtype=np.float64),
        labels=final,
        d_inv_sqrt=clustering.d_inv_sqrt,
        basis=clustering.basis,
        eigenvalues=clustering.eigenvalues,
        centroids=clustering.centroids,
    )
    if bm.mode == "nn":
        return bm
    local = clustering.labels
    n_slots = 1 if bm.mode == "const" else bm.centroids.shape[0]
    label_map = np.full(n_slots, -1, dtype=np.int64)
    label_map[local] = final
    if not np.array_equal(label_map[local], final):
        raise RuntimeError(
            "a bucket-local cluster maps to more than one global label; "
            "refine is expected to merge whole clusters"
        )
    bm.label_map = label_map
    return bm


def assemble_model(
    X, signatures, buckets, clusterings, labels, *, hasher, kernel, zero_diagonal, n_clusters, meta=None
):
    """Build a :class:`DASCModel` from a fit's partition and bucket clusterings.

    ``X``, ``signatures`` and ``labels`` are the training points, their
    signatures and their final labels, in matching order; ``buckets`` is the
    :class:`~repro.core.buckets.Buckets` partition they were clustered in
    and ``clusterings`` each bucket's
    :class:`~repro.spectral.bucket.BucketClustering`, in bucket order.
    Merged buckets keep only their leader's signature, so the routing table
    is built from the per-point signatures: every signature seen in training
    maps to the final bucket its points ended up in.
    """
    labels = np.asarray(labels, dtype=np.int64)
    X = np.asarray(X, dtype=np.float64)
    bucket_models = [
        bucket_model(X[idx], clustering, labels[idx])
        for (_, idx), clustering in zip(buckets.iter_members(), clusterings, strict=True)
    ]
    table_signatures, first = np.unique(signatures, return_index=True)
    counts = np.bincount(labels, minlength=n_clusters)
    present = np.flatnonzero(counts > 0).astype(np.int64)
    centroids = np.empty((present.size, X.shape[1]), dtype=np.float64)
    for row, c in enumerate(present.tolist()):
        centroids[row] = X[labels == c].mean(axis=0)
    return DASCModel(
        hasher=hasher,
        kernel=kernel,
        zero_diagonal=bool(zero_diagonal),
        n_clusters=int(n_clusters),
        table_signatures=table_signatures,
        table_buckets=buckets.assignments[first].astype(np.int64),
        bucket_sizes=np.array([bm.n_landmarks for bm in bucket_models], dtype=np.int64),
        buckets=bucket_models,
        global_centroids=centroids,
        global_centroid_labels=present,
        meta=dict(meta or {}),
    )


@dataclass
class DASCModel:
    """A frozen, servable DASC clustering (see module docstring)."""

    hasher: object
    kernel: Kernel
    zero_diagonal: bool
    n_clusters: int
    table_signatures: np.ndarray      # (T,) uint64, sorted ascending
    table_buckets: np.ndarray         # (T,) int64 bucket index per signature
    bucket_sizes: np.ndarray          # (B,) int64 training sizes (tie rule)
    buckets: list
    global_centroids: np.ndarray      # (C, d) input-space cluster means
    global_centroid_labels: np.ndarray  # (C,) label carried by each centroid
    meta: dict = field(default_factory=dict)

    @property
    def n_features(self) -> int:
        return int(self.global_centroids.shape[1])

    @property
    def n_buckets(self) -> int:
        return len(self.buckets)

    def check_query(self, X) -> np.ndarray:
        """``X`` as a 2-D float array; a width other than the fit's raises ``ValueError``."""
        X = check_2d(X)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, the model was fitted on {self.n_features}"
            )
        return X

    # -- routing -------------------------------------------------------------

    def route(self, signatures, *, max_route_distance=None):
        """Map signatures to bucket ids; returns ``(bucket_ids, methods)``.

        ``bucket_ids`` is ``-1`` where no bucket is usable (the caller falls
        back to global centroids); ``methods`` holds :data:`ROUTE_NAMES`
        codes. ``max_route_distance`` caps the Hamming distance the nearest-
        signature rung may bridge (``None``: unlimited).
        """
        sigs = np.ascontiguousarray(np.asarray(signatures, dtype=np.uint64).ravel())
        n = sigs.shape[0]
        bucket_ids = np.full(n, -1, dtype=np.int64)
        methods = np.full(n, ROUTE_FALLBACK, dtype=np.int64)
        if n == 0 or self.table_signatures.size == 0:
            return bucket_ids, methods
        pos = np.searchsorted(self.table_signatures, sigs)
        pos = np.minimum(pos, self.table_signatures.size - 1)
        exact = self.table_signatures[pos] == sigs
        bucket_ids[exact] = self.table_buckets[pos[exact]]
        methods[exact] = ROUTE_EXACT
        miss = np.flatnonzero(~exact)
        if miss.size == 0:
            return bucket_ids, methods
        # One Hamming table per *unique* missing signature bounds the
        # (U x T) popcount temporary regardless of batch size.
        unique, inverse = np.unique(sigs[miss], return_inverse=True)
        dist = hamming_distance(unique[:, None], self.table_signatures[None, :])
        dmin = dist.min(axis=1)
        chosen = np.empty(unique.shape[0], dtype=np.int64)
        for r in range(unique.shape[0]):
            cand = np.flatnonzero(dist[r] == dmin[r])
            # Tie rule: largest training bucket wins, then lowest signature
            # (argmax takes the first maximum; the table is signature-sorted).
            chosen[r] = cand[int(np.argmax(self.bucket_sizes[self.table_buckets[cand]]))]
        row_bucket = self.table_buckets[chosen]
        row_method = np.where(dmin <= 1, ROUTE_NEAR, ROUTE_NEAREST)
        if max_route_distance is not None:
            far = dmin > max_route_distance
            row_bucket = np.where(far, -1, row_bucket)
            row_method = np.where(far, ROUTE_FALLBACK, row_method)
        bucket_ids[miss] = row_bucket[inverse]
        methods[miss] = row_method[inverse]
        return bucket_ids, methods

    # -- assignment ----------------------------------------------------------

    def assign(self, X, *, max_route_distance=None, return_details=False):
        """Assign new points to clusters; returns ``(n,)`` int64 labels.

        With ``return_details`` also returns a dict with the per-point
        ``signatures``, ``bucket_ids`` and routing ``methods`` (codes into
        :data:`ROUTE_NAMES`).
        """
        X = self.check_query(X)
        signatures = self.hasher.hash(X)
        bucket_ids, methods = self.route(signatures, max_route_distance=max_route_distance)
        labels, methods = self.assign_routed(X, bucket_ids, methods)
        if return_details:
            return labels, {
                "signatures": signatures,
                "bucket_ids": bucket_ids,
                "methods": methods,
            }
        return labels

    def assign_routed(self, X, bucket_ids, methods):
        """Assign with routing already decided (the service's cached path).

        Returns ``(labels, methods)`` — ``methods`` is updated in the rare
        case a routed query still needed the global-centroid fallback (an
        unmapped local cluster).
        """
        X = np.asarray(X, dtype=np.float64)
        bucket_ids = np.asarray(bucket_ids, dtype=np.int64)
        methods = np.asarray(methods, dtype=np.int64).copy()
        labels = np.full(X.shape[0], -1, dtype=np.int64)
        for b in np.unique(bucket_ids[bucket_ids >= 0]).tolist():
            rows = np.flatnonzero(bucket_ids == b)
            labels[rows] = self._assign_in_bucket(self.buckets[b], X[rows])
        fallback = labels < 0
        if fallback.any():
            d2 = pairwise_sq_distances(X[fallback], self.global_centroids)
            labels[fallback] = self.global_centroid_labels[np.argmin(d2, axis=1)]
            methods[fallback] = ROUTE_FALLBACK
        return labels, methods

    def _assign_in_bucket(self, bm: BucketModel, Q: np.ndarray) -> np.ndarray:
        if bm.mode == "const":
            return np.full(Q.shape[0], int(bm.label_map[0]), dtype=np.int64)
        if bm.mode == "nn":
            d2 = pairwise_sq_distances(Q, bm.landmarks)
            return bm.labels[np.argmin(d2, axis=1)]
        K = self.kernel(Q, bm.landmarks)
        if self.zero_diagonal:
            # Algorithm 2 writes a zero self-affinity on every training row.
            # A query that *is* a landmark must see the same convention, or
            # its degree is inflated by the kernel's unit self-similarity
            # and the reproduced embedding row drifts off the training one.
            # Exact row equality (not a distance tolerance) keeps this a
            # pure replay decision.
            eq = (Q[:, None, :] == bm.landmarks[None, :, :]).all(axis=2)
            rows = np.flatnonzero(eq.any(axis=1))
            if rows.size:
                K[rows, np.argmax(eq[rows], axis=1)] = 0.0
        d_x = K.sum(axis=1)
        with np.errstate(divide="ignore"):
            inv_x = 1.0 / np.sqrt(d_x)
        inv_x[~np.isfinite(inv_x)] = 0.0
        l = K * inv_x[:, None] * bm.d_inv_sqrt[None, :]
        lam = bm.eigenvalues.copy()
        lam[np.abs(lam) < _EIGENVALUE_FLOOR] = _EIGENVALUE_FLOOR
        Y = row_normalize((l @ bm.basis) / lam[None, :])
        local = np.argmin(pairwise_sq_distances(Y, bm.centroids), axis=1)
        # label_map slots are -1 only for a fit-time empty cluster; the
        # caller's global-centroid fallback covers those queries.
        return bm.label_map[local]

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> dict:
        """A versioned dict ready for the checksummed envelope plane."""
        return {
            "format": _PAYLOAD_FORMAT,
            "version": MODEL_FORMAT_VERSION,
            "hasher": self.hasher,
            "kernel": self.kernel,
            "zero_diagonal": self.zero_diagonal,
            "n_clusters": self.n_clusters,
            "table_signatures": self.table_signatures,
            "table_buckets": self.table_buckets,
            "bucket_sizes": self.bucket_sizes,
            "buckets": [vars(bm).copy() for bm in self.buckets],
            "global_centroids": self.global_centroids,
            "global_centroid_labels": self.global_centroid_labels,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_payload(cls, payload) -> "DASCModel":
        if not isinstance(payload, dict) or payload.get("format") != _PAYLOAD_FORMAT:
            raise ValueError("payload is not a serialized DASCModel")
        if payload.get("version") != MODEL_FORMAT_VERSION:
            raise ValueError(
                f"unsupported DASCModel format version {payload.get('version')!r} "
                f"(this build reads version {MODEL_FORMAT_VERSION})"
            )
        return cls(
            hasher=payload["hasher"],
            kernel=payload["kernel"],
            zero_diagonal=payload["zero_diagonal"],
            n_clusters=payload["n_clusters"],
            table_signatures=payload["table_signatures"],
            table_buckets=payload["table_buckets"],
            bucket_sizes=payload["bucket_sizes"],
            buckets=[BucketModel(**d) for d in payload["buckets"]],
            global_centroids=payload["global_centroids"],
            global_centroid_labels=payload["global_centroid_labels"],
            meta=payload.get("meta", {}),
        )

    def save(self, store, key: str, *, retry: RetryPolicy | None = None) -> None:
        """Persist through the checksummed write-verify-promote path."""
        ResilientStore.wrap(store, retry=retry).put(key, self.to_payload())

    @classmethod
    def load(cls, store, key: str, *, retry: RetryPolicy | None = None, quarantine: bool = True) -> "DASCModel":
        """Load a model; a corrupt object is quarantined to ``<key>.corrupt``.

        Transient store faults are retried by the resilient layer; damage
        that survives the envelope check raises :class:`CorruptObjectError`
        after moving the bytes aside, so a re-published model under the
        same key loads cleanly.
        """
        resilient = ResilientStore.wrap(store, retry=retry)
        try:
            payload = resilient.get(key)
        except CorruptObjectError:
            if quarantine:
                resilient.quarantine(key)
            raise
        return cls.from_payload(payload)
