"""The serving run: a model fitted to the ``mr-many-buckets`` input, served
by ``AssignmentService`` under two open-loop rates and a closed loop.

The traced run of ``mr-many-buckets`` calls :func:`serve_mixed`; its metrics
are per-layer only (see README).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from inputs import RequestStream, make_points
from repro.core import DASC
from repro.mapreduce.storage import S3Store
from repro.metrics import normalized_mutual_info
from repro.observability.trace import NULL_TRACER
from repro.serving import ROUTE_NAMES, AssignmentService, DASCModel
from workloads import FULL, Run, Scale, label_checks, median, mr_config, repeats_of

#: Cycles of (200 req/s, 500 req/s, closed loop) the serving run is split into.
SERVE_CYCLES = 5


def serve_setup(X, scale: Scale, tracer=NULL_TRACER) -> dict:
    """Fit in process, export the model, and round-trip it through the store.

    Returns the fitted estimator, the served model and the split of the
    set-up time; each public call runs inside a span of ``tracer``.
    """
    store = S3Store()
    t0 = time.perf_counter()
    with tracer.span("serving.fit"):
        est = DASC(config=mr_config(scale)).fit(X)
    t1 = time.perf_counter()
    with tracer.span("serving.export_model"):
        model = est.export_model(X)
    t2 = time.perf_counter()
    with tracer.span("serving.store_roundtrip"):
        model.save(store, "models/dasc")
        served = DASCModel.load(store, "models/dasc")
    t3 = time.perf_counter()
    return {
        "est": est, "model": served,
        "fit_s": t1 - t0, "export_s": t2 - t1, "store_s": t3 - t2, "total_s": t3 - t0,
    }


def serve_mixed(
    seed: int, seconds: float, scale: Scale = FULL, *, tracer=NULL_TRACER, corrupt: str | None = None,
) -> Run:
    """``AssignmentService`` under two open-loop rates and a closed-loop phase.

    Serves a model fitted to the ``mr-many-buckets`` input; the traced run of
    that workload calls this, and its metrics are per-layer only.

    ``corrupt="replay"`` permutes the replayed training labels before they
    are checked; the self-test uses it to prove the check can fail.
    """
    run = Run()
    X, y = make_points(scale.mr, seed)
    probe = RequestStream(X, seed).sample(256)
    times, first = [], None  # per set-up timings; only the last model is kept
    for _ in range(scale.setup_repeats):
        est = model = None  # free the previous set-up before the next one peaks
        setup = serve_setup(X, scale, tracer=tracer)
        est, model = setup.pop("est"), setup.pop("model")
        times.append(setup)
        failures, _ = label_checks(est.labels_, est.n_clusters_, scale.mr_k, y, scale.mr_nmi_floor)
        probe_labels, details = model.assign(probe, return_details=True)
        counts = (
            est.labels_.tobytes(), model.n_buckets, int(model.table_signatures.size),
            probe_labels.tobytes(), np.bincount(details["methods"], minlength=len(ROUTE_NAMES)).tobytes(),
        )
        failures += repeats_of(first, counts, "fit labels/model tables/probe routes")
        first = first or counts
        run.operation("serving set-up", failures)

    replay = AssignmentService(model).assign(X)
    if corrupt == "replay":
        replay = np.random.default_rng(seed).permutation(replay)
    run.operation(
        "training replay",
        [] if np.array_equal(replay, est.labels_) else ["replayed labels differ from the fit labels"],
    )

    service = AssignmentService(model)
    stream = RequestStream(X, seed)
    served = Served(service, est.labels_, y, model.n_clusters)
    # Host speed drifts by ±20% over tens of seconds, so the three phases
    # are interleaved in short cycles: each statistic pools samples spread
    # over the whole run instead of one stretch of it.
    parts = {"low": [], "high": [], "capacity": []}
    span = seconds / SERVE_CYCLES
    for _ in range(SERVE_CYCLES):
        parts["low"].append(open_loop(served, stream, scale.low_rps, 0.25 * span))
        parts["high"].append(open_loop(served, stream, scale.high_rps, 0.25 * span))
        parts["capacity"].append(closed_loop(served, stream, 0.50 * span))
    phases = {name: Phase.pool(pieces) for name, pieces in parts.items()}
    run.attempted += served.requests
    run.failed += len(served.failures)
    run.notes += [f"FAILED request: {failure}" for failure in served.failures]
    nmi = served.nmi()
    run.notes.append(f"served nmi {nmi:.4f} (jittered queries against their blob labels)")
    run.operation(
        "served nmi",
        [] if nmi >= scale.serve_nmi_floor else [f"served nmi {nmi:.4f} below floor {scale.serve_nmi_floor}"],
    )

    mix = service.route_mix()
    lookups = mix["cache_hits"] + mix["cache_misses"]
    run.layer.update({
        "low.p50_ms": phases["low"].percentile_ms("latency", 50),
        "low.p99_ms": phases["low"].percentile_ms("latency", 99),
        "high.p50_ms": phases["high"].percentile_ms("latency", 50),
        "high.p99_ms": phases["high"].percentile_ms("latency", 99),
        "capacity_rps": phases["capacity"].requests / phases["capacity"].elapsed,
        "agree": served.agree(),
        "serving.queue_wait_p99_ms": phases["high"].percentile_ms("queue_wait", 99),
        "serving.lateness_p99_ms": phases["high"].percentile_ms("lateness", 99),
        "serving.export_s": median([t["export_s"] for t in times]),
        "serving.store_s": median([t["store_s"] for t in times]),
        "serving.cache_hit_ratio": mix["cache_hits"] / lookups if lookups else 0.0,
        **{f"serving.route_{name}": float(mix[name]) for name in ROUTE_NAMES},
    })
    run.notes += [phase.describe(name) for name, phase in phases.items()]
    run.notes.append(
        "route mix: " + ", ".join(f"{n} {mix[n]}" for n in ROUTE_NAMES)
        + f"; cache hits {mix['cache_hits']}/{lookups}, entries {mix['cache_entries']}"
    )
    run.keep.update(
        X=X, est=est, model=model, setup_total_s=sum(t["total_s"] for t in times), service_mix=mix,
        phase_labels=served.labels, n_requests=served.requests,
        service_total_s=float(sum(p.service.sum() for p in phases.values())),
    )
    return run


class Served:
    """Serves requests, checks each answer, and keeps what the quality metrics need."""

    def __init__(self, service, fit_labels, truth, n_clusters: int):
        self.service = service
        self.fit_labels = fit_labels
        self.truth = truth
        self.n_clusters = n_clusters
        self.requests = 0
        self.failures: list = []
        self.labels: list = []    # per request; None where it raised
        self._served, self._source = [], []

    def serve(self, points, source) -> None:
        """One request through the service; a raised error is a failed request."""
        i = self.requests
        self.requests += 1
        try:
            labels = self.service.assign(points)
        except Exception as exc:  # counted, and the phase goes on
            self.labels.append(None)
            self.failures.append(f"request {i} raised {exc!r}")
            return
        self.labels.append(labels)
        if labels.shape != (points.shape[0],) or (labels < 0).any() or (labels >= self.n_clusters).any():
            self.failures.append(f"request {i} returned missing or out-of-range labels")
            return
        jittered = source >= 0
        self._served.append(labels[jittered])
        self._source.append(source[jittered])

    def _pairs(self):
        return np.concatenate(self._served), np.concatenate(self._source)

    def agree(self) -> float:
        """Share of jittered queries labelled like their source training point."""
        served, source = self._pairs()
        return float(np.mean(served == self.fit_labels[source]))

    def nmi(self) -> float:
        """NMI of the served labels of jittered queries against ground truth."""
        served, source = self._pairs()
        return normalized_mutual_info(self.truth[source], served)


@dataclass
class Phase:
    """Per-request timings of one serving phase, in seconds."""

    latency: np.ndarray      # done - due
    service: np.ndarray      # done - start
    queue_wait: np.ndarray   # time spent behind earlier requests
    lateness: np.ndarray     # start - max(due, previous done): generator lateness
    requests: int
    elapsed: float
    rate: float | None = None

    @classmethod
    def pool(cls, pieces: list) -> "Phase":
        """One phase from the cycles it was split into."""
        return cls(
            *(np.concatenate([getattr(p, name) for p in pieces])
              for name in ("latency", "service", "queue_wait", "lateness")),
            requests=sum(p.requests for p in pieces),
            elapsed=sum(p.elapsed for p in pieces),
            rate=pieces[0].rate,
        )

    def percentile_ms(self, name: str, q: float) -> float:
        values = getattr(self, name)
        return float(np.percentile(values, q) * 1e3) if values.size else 0.0

    def describe(self, name: str) -> str:
        if self.rate is None:
            return (
                f"{name}: closed loop, {self.requests} requests in {self.elapsed:.2f} s "
                f"= {self.requests / self.elapsed:.1f} req/s; service p50 "
                f"{self.percentile_ms('service', 50):.3f} ms"
            )
        return (
            f"{name}: open loop {self.rate:g} req/s, n={self.requests}; latency p50 "
            f"{self.percentile_ms('latency', 50):.3f} ms p99 {self.percentile_ms('latency', 99):.3f} ms; "
            f"queue wait p99 {self.percentile_ms('queue_wait', 99):.3f} ms; lateness p99 "
            f"{self.percentile_ms('lateness', 99):.3f} ms"
        )


def _wait_until(t: float) -> None:
    # Sleep most of the gap, then spin: a bare sleep overshoots by ~0.1 ms,
    # which would be charged to every request's latency.
    while True:
        remaining = t - time.perf_counter()
        if remaining <= 0:
            return
        if remaining > 0.002:
            time.sleep(remaining - 0.001)


def open_loop(served: Served, stream: RequestStream, rate: float, duration: float) -> Phase:
    """Issue requests on a fixed schedule; time each from when it was due."""
    n = max(1, int(rate * duration))
    cols = np.zeros((4, n))
    t0 = prev_done = time.perf_counter()
    for i in range(n):
        points, source = stream.next()
        due = t0 + i / rate
        _wait_until(due)
        start = time.perf_counter()
        served.serve(points, source)
        done = time.perf_counter()
        cols[:, i] = (done - due, done - start, max(0.0, prev_done - due), start - max(due, prev_done))
        prev_done = done
    return Phase(*cols, requests=n, elapsed=time.perf_counter() - t0, rate=rate)


def closed_loop(served: Served, stream: RequestStream, duration: float) -> Phase:
    """One caller that sends its next request when the previous one returns."""
    service_times = []
    t0 = time.perf_counter()
    deadline = t0 + duration
    while not service_times or time.perf_counter() < deadline:
        points, source = stream.next()
        start = time.perf_counter()
        served.serve(points, source)
        service_times.append(time.perf_counter() - start)
    empty = np.zeros(0)
    return Phase(
        empty, np.asarray(service_times), empty, empty,
        requests=len(service_times), elapsed=time.perf_counter() - t0,
    )
