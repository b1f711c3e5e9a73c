"""Quickstart: cluster synthetic data with DASC and compare against exact SC.

Demonstrates the core public API:

* generating data (``repro.data.make_blobs``),
* running DASC and exact spectral clustering,
* inspecting the approximation (buckets, kernel memory, Frobenius ratio),
* scoring with the paper's metrics.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import DASC, SpectralClustering
from repro.data import make_blobs
from repro.kernels import GaussianKernel, gram_matrix
from repro.metrics import (
    average_squared_error,
    clustering_accuracy,
    davies_bouldin_index,
    fnorm_ratio,
)


def main():
    # 2,000 points in 8 Gaussian clusters, 64 dimensions, values in [0, 1] --
    # the shape of the paper's synthetic dataset, plus ground-truth labels.
    X, y = make_blobs(n_samples=2000, n_clusters=8, n_features=64, cluster_std=0.05, seed=7)
    print(f"dataset: {X.shape[0]} points, {X.shape[1]} dims, 8 true clusters")

    # --- DASC: LSH bucketing + per-bucket spectral clustering --------------
    dasc = DASC(n_clusters=8, seed=7)
    labels_dasc = dasc.fit_predict(X)
    print("\nDASC")
    print(f"  signature bits M      : {dasc.n_bits_}")
    print(f"  buckets B             : {dasc.buckets_.n_buckets}")
    print(f"  kernel bandwidth sigma: {dasc.sigma_:.3f}")
    print(f"  Gram storage          : {dasc.approx_kernel_.nbytes:,} bytes "
          f"(full matrix would be {4 * len(X) ** 2:,})")
    print(f"  accuracy vs truth     : {clustering_accuracy(y, labels_dasc):.3f}")
    print(f"  DBI / ASE             : {davies_bouldin_index(X, labels_dasc):.3f} / "
          f"{average_squared_error(X, labels_dasc):.4f}")
    print(f"  stage times (s)       : { {k: round(v, 3) for k, v in dasc.stopwatch_.laps.items()} }")

    # --- exact SC on the full O(N^2) kernel matrix --------------------------
    sc = SpectralClustering(n_clusters=8, sigma=dasc.sigma_, seed=7)
    labels_sc = sc.fit_predict(X)
    print("\nexact SC")
    print(f"  Gram storage          : {sc.memory_.total:,} bytes")
    print(f"  accuracy vs truth     : {clustering_accuracy(y, labels_sc):.3f}")

    # --- how much of the kernel did the approximation keep? ----------------
    # The fit drops each bucket's Gram block once the bucket is clustered;
    # transform() builds and returns them all.
    full = gram_matrix(X, GaussianKernel(dasc.sigma_), zero_diagonal=True)
    print(f"\nFrobenius-norm ratio (approx / full): "
          f"{fnorm_ratio(dasc.transform(X), full):.3f}")


if __name__ == "__main__":
    main()
