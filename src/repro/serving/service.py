"""Micro-batched assignment serving on top of :class:`DASCModel`.

The ROADMAP's north star serves "heavy traffic"; this layer adds what a
request path needs beyond the raw model:

* **micro-batching** — requests are processed in fixed-size slices so one
  huge array cannot blow the per-batch kernel temporaries, and per-batch
  latency is an honest unit of measurement;
* **signature→route LRU cache** — routing is a pure function of the
  signature, and real traffic is Zipfian over signatures (points from the
  same region hash alike), so the Hamming ladder is paid once per distinct
  signature, not once per request;
* **observability** — every batch runs under a ``serving.batch`` tracer
  span, and a :class:`MetricsRegistry` accumulates request counts, route-
  method mix, cache hits and latency histograms that
  :meth:`AssignmentService.latency_summary` distils into p50/p95/p99 (the
  numbers ``repro serve-bench`` reports and CI smoke-checks);
* **admission control + replica scaling** — with a ``queue_watermark``
  set, each request's micro-batch queue depth is admitted against the
  simulated replica pool: depth beyond what ``max_replicas`` can absorb
  sheds the request with a structured :exc:`OverloadError` (the caller's
  backpressure signal), sustained load grows the pool toward
  ``max_replicas``, and an EWMA of recent depth shrinks it back to
  ``min_replicas`` when traffic fades — the serving-side mirror of the
  cluster autoscaler in :mod:`repro.mapreduce.autoscale`.
"""

from __future__ import annotations

from collections import OrderedDict
from math import ceil
from time import perf_counter

import numpy as np

from repro.observability import MetricsRegistry, get_tracer
from repro.observability.metrics import time_buckets
from repro.serving.model import ROUTE_NAMES, DASCModel

__all__ = ["AssignmentService", "OverloadError"]


class OverloadError(RuntimeError):
    """A request was shed: its queue depth exceeds the replica pool's ceiling.

    Structured so callers can implement backpressure: ``queue_depth`` is
    the micro-batches the rejected request would enqueue, ``watermark``
    the per-replica depth each replica absorbs, and ``n_replicas`` /
    ``max_replicas`` the pool's current and maximum size.
    """

    def __init__(self, *, queue_depth: int, watermark: int, n_replicas: int, max_replicas: int):
        self.queue_depth = queue_depth
        self.watermark = watermark
        self.n_replicas = n_replicas
        self.max_replicas = max_replicas
        super().__init__(
            f"request shed: queue depth {queue_depth} exceeds capacity "
            f"{max_replicas * watermark} ({max_replicas} replicas x watermark "
            f"{watermark}; currently {n_replicas} replica(s))"
        )


class _RouteCache:
    """Tiny LRU over ``signature -> (bucket_id, method)`` routing decisions."""

    __slots__ = ("capacity", "hits", "misses", "_data")

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[int, tuple[int, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: int):
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: int, entry: tuple[int, int]) -> None:
        if self.capacity == 0:
            return
        self._data[key] = entry
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)


class AssignmentService:
    """Serve cluster assignments for a fitted :class:`DASCModel`.

    Parameters
    ----------
    model:
        The frozen artifact to serve.
    batch_size:
        Micro-batch width; requests are sliced to at most this many points.
    cache_size:
        Capacity of the signature→route LRU (0 disables caching).
    max_route_distance:
        Forwarded to :meth:`DASCModel.route` — Hamming radius beyond which
        queries skip the bucket ladder and take the global-centroid
        fallback.
    metrics:
        An external :class:`MetricsRegistry` to record into (a fresh
        private one by default).
    queue_watermark:
        Micro-batches of queue depth one replica absorbs before the pool
        must grow. ``None`` (the default) disables admission control and
        replica scaling entirely — every request is served.
    min_replicas / max_replicas:
        Bounds of the simulated replica pool. A request whose depth
        exceeds ``max_replicas * queue_watermark`` is shed with
        :exc:`OverloadError` before any work is done.
    """

    #: EWMA smoothing for the scale-down signal: recent queue depth counts
    #: this fraction, history the rest. Scale-*up* reacts instantly to the
    #: raw depth (and snaps the EWMA up to it); only the decay path reads
    #: the smoothed value, so one quiet request never tears the pool down.
    DECAY_ALPHA = 0.1

    def __init__(
        self,
        model: DASCModel,
        *,
        batch_size: int = 256,
        cache_size: int = 4096,
        max_route_distance: int | None = None,
        metrics: MetricsRegistry | None = None,
        queue_watermark: int | None = None,
        min_replicas: int = 1,
        max_replicas: int = 8,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if queue_watermark is not None and queue_watermark < 1:
            raise ValueError(f"queue_watermark must be >= 1, got {queue_watermark}")
        if min_replicas < 1:
            raise ValueError(f"min_replicas must be >= 1, got {min_replicas}")
        if max_replicas < min_replicas:
            raise ValueError(
                f"max_replicas must be >= min_replicas, got {max_replicas} < {min_replicas}"
            )
        self.model = model
        self.batch_size = int(batch_size)
        self.max_route_distance = max_route_distance
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.queue_watermark = queue_watermark
        self.min_replicas = int(min_replicas)
        self.max_replicas = int(max_replicas)
        self.n_replicas = int(min_replicas)
        self._depth_ewma = 0.0
        self._cache = _RouteCache(int(cache_size))
        self._busy_seconds = 0.0

    @classmethod
    def from_store(cls, store, key: str, *, retry=None, **kwargs) -> "AssignmentService":
        """Load the model through the resilient/quarantine path and serve it."""
        return cls(DASCModel.load(store, key, retry=retry), **kwargs)

    # -- the request path ----------------------------------------------------

    def assign(self, X) -> np.ndarray:
        """Assign a request of points; processed in micro-batches.

        With ``queue_watermark`` set, the request is first admitted
        against the replica pool (see :meth:`replica_status`); a request
        too deep for even ``max_replicas`` raises :exc:`OverloadError`
        without touching the model. A query whose width differs from the
        fit's raises ``ValueError`` before admission, so it is neither
        admitted nor counted.
        """
        X = self.model.check_query(X)
        self._admit(X.shape[0])
        out = np.empty(X.shape[0], dtype=np.int64)
        for start in range(0, X.shape[0], self.batch_size):
            stop = min(start + self.batch_size, X.shape[0])
            out[start:stop] = self._assign_batch(X[start:stop])
        return out

    def _admit(self, n_points: int) -> None:
        """Admission control: shed, scale up, or decay the replica pool."""
        if self.queue_watermark is None:
            return
        depth = -(-n_points // self.batch_size)  # micro-batches this request enqueues
        needed = -(-depth // self.queue_watermark)
        m = self.metrics
        if needed > self.max_replicas:
            m.counter("serving.shed.requests").inc(n_points)
            m.counter("serving.shed.batches").inc(depth)
            raise OverloadError(
                queue_depth=depth,
                watermark=self.queue_watermark,
                n_replicas=self.n_replicas,
                max_replicas=self.max_replicas,
            )
        self._depth_ewma = (
            self.DECAY_ALPHA * depth + (1.0 - self.DECAY_ALPHA) * self._depth_ewma
        )
        if needed > self.n_replicas:
            m.counter("serving.replicas.scale_up").inc(needed - self.n_replicas)
            self.n_replicas = needed
            self._depth_ewma = max(self._depth_ewma, float(depth))
        else:
            # Shrink one replica at a time, and only when the *smoothed*
            # depth fits the smaller pool — bursty traffic keeps its
            # replicas, faded traffic releases them gradually.
            settled = max(
                self.min_replicas,
                int(ceil(max(self._depth_ewma, 1.0) / self.queue_watermark)),
            )
            if settled < self.n_replicas:
                m.counter("serving.replicas.scale_down").inc()
                self.n_replicas -= 1
        m.gauge("serving.replicas").set(self.n_replicas)

    def _assign_batch(self, Q: np.ndarray) -> np.ndarray:
        tracer = get_tracer()
        t0 = perf_counter()
        with tracer.span("serving.batch", n_points=Q.shape[0]) as span:
            signatures = self.model.hasher.hash(Q)
            n = signatures.shape[0]
            bucket_ids = np.empty(n, dtype=np.int64)
            methods = np.empty(n, dtype=np.int64)
            missing: list[int] = []
            for i, sig in enumerate(signatures.tolist()):
                cached = self._cache.get(sig)
                if cached is None:
                    missing.append(i)
                else:
                    bucket_ids[i], methods[i] = cached
            if missing:
                rows = np.asarray(missing, dtype=np.int64)
                fresh_b, fresh_m = self.model.route(
                    signatures[rows], max_route_distance=self.max_route_distance
                )
                bucket_ids[rows] = fresh_b
                methods[rows] = fresh_m
                for i, b, m in zip(missing, fresh_b.tolist(), fresh_m.tolist()):
                    self._cache.put(int(signatures[i]), (b, m))
            labels, methods = self.model.assign_routed(Q, bucket_ids, methods)
            elapsed = perf_counter() - t0
            span.set("cache_hits", n - len(missing))
            span.set("seconds", elapsed)
        self._record(n, len(missing), methods, elapsed)
        return labels

    def _record(self, n: int, n_missing: int, methods: np.ndarray, elapsed: float) -> None:
        m = self.metrics
        m.counter("serving.requests").inc(n)
        m.counter("serving.batches").inc()
        m.counter("serving.cache.hits").inc(n - n_missing)
        m.counter("serving.cache.misses").inc(n_missing)
        for code, name in enumerate(ROUTE_NAMES):
            hits = int((methods == code).sum())
            if hits:
                m.counter(f"serving.route.{name}").inc(hits)
        m.histogram("serving.batch_seconds", buckets=time_buckets()).observe(elapsed)
        per_point = elapsed / n
        point_hist = m.histogram("serving.assign_seconds", buckets=time_buckets())
        for _ in range(n):
            point_hist.observe(per_point)
        self._busy_seconds += elapsed

    # -- reporting -----------------------------------------------------------

    def latency_summary(self) -> dict:
        """p50/p95/p99 per-point latency plus batch stats, from the registry."""
        point = self.metrics.histogram("serving.assign_seconds", buckets=time_buckets())
        batch = self.metrics.histogram("serving.batch_seconds", buckets=time_buckets())
        return {
            "requests": self.metrics.counter("serving.requests").value,
            "batches": self.metrics.counter("serving.batches").value,
            "p50_s": point.quantile(0.50),
            "p95_s": point.quantile(0.95),
            "p99_s": point.quantile(0.99),
            "batch_p99_s": batch.quantile(0.99),
            "mean_s": point.mean,
            "throughput_pts_per_s": (
                point.count / self._busy_seconds if self._busy_seconds > 0 else None
            ),
        }

    def replica_status(self) -> dict:
        """Replica-pool snapshot: size, bounds, smoothed depth, shed totals."""
        return {
            "enabled": self.queue_watermark is not None,
            "n_replicas": self.n_replicas,
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
            "queue_watermark": self.queue_watermark,
            "depth_ewma": self._depth_ewma,
            "scale_ups": self.metrics.counter("serving.replicas.scale_up").value,
            "scale_downs": self.metrics.counter("serving.replicas.scale_down").value,
            "shed_requests": self.metrics.counter("serving.shed.requests").value,
            "shed_batches": self.metrics.counter("serving.shed.batches").value,
        }

    def route_mix(self) -> dict:
        """Requests per routing rung (exact/near/nearest/fallback) + cache."""
        return {
            **{
                name: self.metrics.counter(f"serving.route.{name}").value
                for name in ROUTE_NAMES
            },
            "cache_hits": self._cache.hits,
            "cache_misses": self._cache.misses,
            "cache_entries": len(self._cache),
        }
