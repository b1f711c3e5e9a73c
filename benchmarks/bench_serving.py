"""Serving-plane throughput and tail latency.

The ROADMAP's north star serves assignments under heavy traffic; this
bench measures the request path end to end: export a fitted ``DASCModel``,
stand an :class:`AssignmentService` over it, and push jittered
out-of-sample queries through micro-batches. Reported numbers come from
the service's own :class:`MetricsRegistry` histograms — the p50/p95/p99
surface of :meth:`AssignmentService.latency_summary` — so the benchmark
also guards the measurement plumbing itself.

Gates: training points must reproduce their fit labels bit-identically
(the self-consistency contract), throughput must clear a deliberately
loose floor, and p99 per-point latency must stay under a generous ceiling
so only order-of-magnitude regressions (e.g. falling off the vectorized
routing path) trip CI.
"""

import numpy as np

from benchmarks._harness import print_table, run_once
from repro.core.config import DASCConfig
from repro.core.dasc import DASC
from repro.data import make_blobs
from repro.serving import AssignmentService

N_TRAIN = 2_000
N_QUERIES = 20_000
N_CLUSTERS = 8
BATCH_SIZE = 256
# Loose CI gates: the vectorized path clears these by >10x on any hardware;
# only a broken fast path (per-point Python loops, cache regressions) trips.
MIN_THROUGHPUT_PTS_PER_S = 2_000.0
MAX_P99_SECONDS = 0.05


def test_serving_throughput_and_tail_latency(benchmark):
    """Assignment throughput + p50/p95/p99 from the service's own metrics."""
    X, _ = make_blobs(N_TRAIN, n_clusters=N_CLUSTERS, n_features=16, seed=0)
    estimator = DASC(N_CLUSTERS, config=DASCConfig(seed=0))
    labels = estimator.fit_predict(X)
    model = estimator.export_model(X)
    rng = np.random.default_rng(1)
    picks = rng.integers(N_TRAIN, size=N_QUERIES)
    queries = X[picks] + rng.normal(scale=0.02, size=(N_QUERIES, X.shape[1]))

    def serve():
        service = AssignmentService(model, batch_size=BATCH_SIZE)
        train_ok = bool(np.array_equal(service.assign(X), labels))
        service.assign(queries)
        return train_ok, service.latency_summary(), service.route_mix()

    train_ok, summary, mix = run_once(benchmark, serve)
    assert train_ok, "training points no longer reproduce their fit labels"

    us = lambda v: f"{v * 1e6:.1f}"
    print_table(
        f"serving latency ({N_QUERIES} queries, batch={BATCH_SIZE})",
        ["p50 (us)", "p95 (us)", "p99 (us)", "mean (us)", "pts/s"],
        [[
            us(summary["p50_s"]), us(summary["p95_s"]), us(summary["p99_s"]),
            us(summary["mean_s"]), f"{summary['throughput_pts_per_s']:.0f}",
        ]],
    )
    print_table(
        "routing mix",
        ["exact", "near", "nearest", "fallback", "cache hits"],
        [[mix["exact"], mix["near"], mix["nearest"], mix["fallback"], mix["cache_hits"]]],
    )
    benchmark.extra_info["p50_s"] = summary["p50_s"]
    benchmark.extra_info["p95_s"] = summary["p95_s"]
    benchmark.extra_info["p99_s"] = summary["p99_s"]
    benchmark.extra_info["throughput_pts_per_s"] = summary["throughput_pts_per_s"]
    benchmark.extra_info["route_mix"] = {
        k: mix[k] for k in ("exact", "near", "nearest", "fallback")
    }
    assert summary["throughput_pts_per_s"] >= MIN_THROUGHPUT_PTS_PER_S, (
        f"throughput {summary['throughput_pts_per_s']:.0f} pts/s below the "
        f"{MIN_THROUGHPUT_PTS_PER_S:.0f} floor"
    )
    assert summary["p99_s"] <= MAX_P99_SECONDS, (
        f"p99 per-point latency {summary['p99_s'] * 1e3:.2f}ms exceeds the "
        f"{MAX_P99_SECONDS * 1e3:.0f}ms ceiling"
    )
