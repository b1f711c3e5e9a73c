"""Ablation: eigensolver backends in the DASC pipeline.

The paper's route (Lanczos tridiagonalization + QR, Section 3.2) is
compared against dense LAPACK, ARPACK and the default ``"auto"`` (ARPACK
on buckets with ``n_i >= 32 * max(k_i, 8)``, dense below) on the same DASC
run: identical accuracy is required (the solvers compute the same
embedding), and the per-stage timing shows where each backend spends its
time at per-bucket problem sizes.
"""

import time

from benchmarks._harness import print_table, run_once
from repro.core import DASC
from repro.data import make_blobs
from repro.metrics import clustering_accuracy

BACKENDS = ("auto", "dense", "lanczos", "arpack")


def test_ablation_eig_backend(benchmark):
    def compute():
        X, y = make_blobs(2048, n_clusters=8, n_features=64, cluster_std=0.05, seed=3)
        out = {}
        for backend in BACKENDS:
            start = time.perf_counter()
            dasc = DASC(8, sigma=0.6, eig_backend=backend, seed=0)
            labels = dasc.fit_predict(X)
            elapsed = time.perf_counter() - start
            out[backend] = (
                clustering_accuracy(y, labels),
                elapsed,
                dasc.stopwatch_.laps.get("spectral", 0.0),
            )
        return out

    rows = run_once(benchmark, compute)
    print_table(
        "Ablation — eigensolver backend",
        ["backend", "accuracy", "total (s)", "spectral stage (s)"],
        [[b, f"{a:.3f}", f"{t:.2f}", f"{s:.2f}"] for b, (a, t, s) in rows.items()],
    )

    accuracies = [a for a, _, _ in rows.values()]
    # All backends compute the same embedding: accuracies agree closely.
    assert max(accuracies) - min(accuracies) < 0.05
    for backend, (acc, _, _) in rows.items():
        assert acc > 0.85, backend
