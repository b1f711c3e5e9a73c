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
  numbers ``benchmarks/bench_serving.py`` gates).
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter

import numpy as np

from repro.observability import MetricsRegistry, get_tracer
from repro.observability.metrics import time_buckets
from repro.serving.model import ROUTE_NAMES, DASCModel

__all__ = ["AssignmentService"]


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
    """

    def __init__(
        self,
        model: DASCModel,
        *,
        batch_size: int = 256,
        cache_size: int = 4096,
        max_route_distance: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.batch_size = int(batch_size)
        self.max_route_distance = max_route_distance
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._cache = _RouteCache(int(cache_size))
        self._busy_seconds = 0.0

    @classmethod
    def from_store(cls, store, key: str, *, retry=None, **kwargs) -> "AssignmentService":
        """Load the model through the resilient/quarantine path and serve it."""
        return cls(DASCModel.load(store, key, retry=retry), **kwargs)

    # -- the request path ----------------------------------------------------

    def assign(self, X) -> np.ndarray:
        """Assign a request of points; processed in micro-batches.

        A query whose width differs from the fit's raises ``ValueError``
        before any batch runs, so it is not counted.
        """
        X = self.model.check_query(X)
        out = np.empty(X.shape[0], dtype=np.int64)
        for start in range(0, X.shape[0], self.batch_size):
            stop = min(start + self.batch_size, X.shape[0])
            out[start:stop] = self._assign_batch(X[start:stop])
        return out

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
