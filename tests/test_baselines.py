"""Tests for the PSC and Nystrom baselines."""

import numpy as np
import pytest

from repro.baselines import PSC, NystromSpectralClustering
from repro.metrics import clustering_accuracy
from repro.utils.memory import dense_matrix_bytes


class TestPSC:
    def test_recovers_blobs(self, blobs_small):
        X, y = blobs_small
        labels = PSC(4, n_neighbors=15, sigma=0.3, seed=0).fit_predict(X)
        assert clustering_accuracy(y, labels) > 0.95

    def test_sparse_affinity_properties(self, blobs_small):
        X, _ = blobs_small
        psc = PSC(4, n_neighbors=10, sigma=0.3, seed=0).fit(X)
        S = psc.affinity_matrix_
        # Symmetric.
        assert (S != S.T).nnz == 0
        # Sparse: at most 2tN edges after symmetrisation.
        assert S.nnz <= 2 * 10 * X.shape[0]
        # Zero diagonal (no self loops).
        assert np.allclose(S.diagonal(), 0.0)

    def test_memory_below_full_matrix(self, blobs_medium):
        X, _ = blobs_medium
        psc = PSC(6, n_neighbors=10, sigma=0.3, seed=0).fit(X)
        assert psc.memory_.total < dense_matrix_bytes(X.shape[0])

    def test_blocked_construction_independent_of_block_size(self, blobs_small):
        X, _ = blobs_small
        a = PSC(4, n_neighbors=8, sigma=0.3, block_size=37, seed=1).fit(X)
        b = PSC(4, n_neighbors=8, sigma=0.3, block_size=1000, seed=1).fit(X)
        assert (a.affinity_matrix_ != b.affinity_matrix_).nnz == 0

    def test_neighbors_clipped_to_n_minus_1(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (10, 3))
        labels = PSC(2, n_neighbors=50, sigma=0.5, seed=0).fit_predict(X)
        assert labels.shape == (10,)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PSC(0)
        with pytest.raises(ValueError):
            PSC(2, n_neighbors=0)

    def test_stage_times(self, blobs_small):
        X, _ = blobs_small
        psc = PSC(4, sigma=0.3, seed=0).fit(X)
        assert {"knn_graph", "eigen", "kmeans"} <= set(psc.stopwatch_.laps)

    def test_repeated_fits_agree_on_figure4_input(self):
        """Fig. 4's 2^10 graph has about one component per cluster, so ARPACK
        asks for a fresh restart vector; it must come from the seeded stream."""
        from repro.data import make_blobs

        X, _ = make_blobs(2**10, n_clusters=32, n_features=64, cluster_std=0.09, seed=0)
        a = PSC(32, n_neighbors=10, sigma=0.7, seed=0).fit_predict(X)
        b = PSC(32, n_neighbors=10, sigma=0.7, seed=0).fit_predict(X)
        assert np.array_equal(a, b)


class TestNystrom:
    def test_recovers_blobs(self, blobs_small):
        X, y = blobs_small
        labels = NystromSpectralClustering(4, n_landmarks=80, sigma=0.3, seed=0).fit_predict(X)
        assert clustering_accuracy(y, labels) > 0.95

    def test_landmark_count_recorded(self, blobs_small):
        X, _ = blobs_small
        nyst = NystromSpectralClustering(4, n_landmarks=50, sigma=0.3, seed=0).fit(X)
        assert nyst.landmark_indices_.shape == (50,)
        assert len(np.unique(nyst.landmark_indices_)) == 50  # without replacement

    def test_landmarks_clipped_to_n(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (30, 4))
        nyst = NystromSpectralClustering(3, n_landmarks=100, sigma=0.5, seed=0).fit(X)
        assert nyst.landmark_indices_.shape[0] == 30

    def test_memory_is_m_by_n(self, blobs_medium):
        X, _ = blobs_medium
        m = 100
        nyst = NystromSpectralClustering(6, n_landmarks=m, sigma=0.3, seed=0).fit(X)
        assert nyst.memory_.total == dense_matrix_bytes(m, X.shape[0])
        assert nyst.memory_.total < dense_matrix_bytes(X.shape[0])

    def test_more_landmarks_no_worse_on_average(self, blobs_medium):
        X, y = blobs_medium
        few = NystromSpectralClustering(6, n_landmarks=12, sigma=0.3, seed=0).fit_predict(X)
        many = NystromSpectralClustering(6, n_landmarks=200, sigma=0.3, seed=0).fit_predict(X)
        assert clustering_accuracy(y, many) >= clustering_accuracy(y, few) - 0.05

    def test_embedding_shape(self, blobs_small):
        X, _ = blobs_small
        nyst = NystromSpectralClustering(4, n_landmarks=60, sigma=0.3, seed=0).fit(X)
        assert nyst.embedding_.shape == (X.shape[0], 4)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NystromSpectralClustering(0)
        with pytest.raises(ValueError):
            NystromSpectralClustering(2, n_landmarks=0)
