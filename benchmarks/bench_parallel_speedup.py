"""Real-core elasticity: wall-clock speedup of the parallel backend.

Table 3's elasticity is a *simulated* makespan property; this bench
measures its real-hardware counterpart. DASC's per-bucket decomposition is
embarrassingly parallel (Section 4), so fanning the kernel + spectral stage
over worker processes should cut the measured wall clock roughly linearly
in the worker count — while producing bit-identical labels, which is
asserted at every worker count.

Speedup obviously requires physical cores: the >= 2x-at-4-workers
assertion only arms when the machine exposes at least 4 CPUs. Timings,
core count, and per-worker-count results always land in the benchmark
JSON (``extra_info``) either way.
"""

import os
import time

import numpy as np

from benchmarks._harness import print_table, run_once
from repro.core.config import DASCConfig
from repro.core.dasc import DASC
from repro.data import make_blobs

N_SAMPLES = 20_000
N_CLUSTERS = 8
WORKER_COUNTS = [1, 2, 4]


def test_dasc_fit_speedup(benchmark):
    """DASC.fit wall clock vs n_jobs on >= 20k points; labels must not move."""
    X, _ = make_blobs(N_SAMPLES, n_clusters=N_CLUSTERS, n_features=16, seed=0)

    def sweep():
        results = {}
        for w in WORKER_COUNTS:
            model = DASC(N_CLUSTERS, config=DASCConfig(seed=0, n_jobs=w))
            start = time.perf_counter()
            labels = model.fit_predict(X)
            results[w] = (time.perf_counter() - start, labels)
        return results

    results = run_once(benchmark, sweep)
    base_time, base_labels = results[1]
    rows = []
    for w in WORKER_COUNTS:
        elapsed, labels = results[w]
        assert np.array_equal(labels, base_labels), f"labels diverged at {w} workers"
        rows.append([w, f"{elapsed:.2f}", f"{base_time / elapsed:.2f}x"])
    print_table(
        f"DASC fit speedup ({N_SAMPLES} points, {os.cpu_count()} cores visible)",
        ["workers", "seconds", "speedup"],
        rows,
    )
    speedup_at_4 = base_time / results[4][0]
    benchmark.extra_info["n_samples"] = N_SAMPLES
    benchmark.extra_info["cores_available"] = os.cpu_count()
    benchmark.extra_info["seconds_by_workers"] = {str(w): results[w][0] for w in WORKER_COUNTS}
    benchmark.extra_info["speedup_at_4_workers"] = speedup_at_4
    if (os.cpu_count() or 1) >= 4:
        assert speedup_at_4 >= 2.0, f"expected >= 2x at 4 workers, got {speedup_at_4:.2f}x"

