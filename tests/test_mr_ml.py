"""Tests for the distributed ML substrate (the Mahout role): MR K-Means,
distributed linear algebra, and MR spectral clustering."""

import numpy as np
import pytest

from repro.kernels import GaussianKernel, gram_matrix
from repro.mapreduce import MapReduceEngine, SimulatedCluster
from repro.metrics import clustering_accuracy, normalized_mutual_info
from repro.mr_ml import MRKMeans, MRSpectralClustering, mr_gram, mr_matvec
from repro.mr_ml.linalg import row_block_splits
from repro.spectral import KMeans, SpectralClustering


class TestMRLinalg:
    @pytest.fixture()
    def engine(self):
        return MapReduceEngine(SimulatedCluster(4))

    def test_matvec_matches_numpy(self, engine, rng):
        A = rng.standard_normal((37, 11))
        x = rng.standard_normal(11)
        splits = row_block_splits(A, block_size=8)
        assert np.allclose(mr_matvec(engine, splits, x), A @ x)

    def test_matvec_single_block(self, engine, rng):
        A = rng.standard_normal((5, 3))
        splits = row_block_splits(A, block_size=100)
        assert len(splits) == 1
        assert np.allclose(mr_matvec(engine, splits, np.ones(3)), A.sum(axis=1))

    def test_gram_matches_numpy(self, engine, rng):
        A = rng.standard_normal((40, 9))
        splits = row_block_splits(A, block_size=11)
        assert np.allclose(mr_gram(engine, splits), A.T @ A)

    def test_row_block_splits_validation(self):
        with pytest.raises(ValueError):
            row_block_splits(np.zeros(3))
        with pytest.raises(ValueError):
            row_block_splits(np.zeros((3, 2)), block_size=0)


class TestMRKMeans:
    def test_recovers_blobs(self, blobs_small):
        X, y = blobs_small
        labels = MRKMeans(4, seed=0).fit_predict(X)
        assert clustering_accuracy(y, labels) > 0.99

    def test_matches_in_process_kmeans(self, blobs_small):
        """Same seeding -> same Lloyd fixed point as the local implementation."""
        X, y = blobs_small
        mr = MRKMeans(4, seed=7).fit(X)
        local = KMeans(4, n_init=1, seed=7).fit(X)
        assert normalized_mutual_info(mr.labels_, local.labels_) > 0.99

    def test_makespan_accumulates(self, blobs_small):
        X, _ = blobs_small
        km = MRKMeans(4, engine=MapReduceEngine(SimulatedCluster(2)), seed=0).fit(X)
        assert km.total_makespan_ > 0
        assert km.n_iter_ >= 1

    def test_combiner_bounds_shuffle(self, blobs_small):
        """With the combiner, each map task shuffles at most K records."""
        X, _ = blobs_small
        from repro.mapreduce.types import JobSpec
        from repro.mr_ml.kmeans import _assign_mapper, _sum_combiner, _centroid_reducer
        from repro.spectral.kmeans import kmeans_plus_plus_init

        centroids = kmeans_plus_plus_init(X, 4, np.random.default_rng(0))
        job = JobSpec(
            name="probe", mapper=_assign_mapper, combiner=_sum_combiner,
            reducer=_centroid_reducer, params={"centroids": centroids},
        )
        splits = [[(i, X[i]) for i in range(0, 200)], [(i, X[i]) for i in range(200, 400)]]
        result = MapReduceEngine().run(job, splits)
        assert result.counters.value("shuffle", "records") <= 2 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            MRKMeans(0)
        with pytest.raises(ValueError):
            MRKMeans(10).fit(np.ones((3, 2)))


class TestMRSpectralClustering:
    def test_matches_local_spectral_clustering(self, blobs_small):
        X, y = blobs_small
        S = gram_matrix(X, GaussianKernel(0.3), zero_diagonal=True)
        mr = MRSpectralClustering(4, seed=0).fit(S)
        assert clustering_accuracy(y, mr.labels_) > 0.99
        local = SpectralClustering(4, sigma=0.3, seed=0).fit_predict(X)
        assert normalized_mutual_info(mr.labels_, local) > 0.95

    def test_embedding_rows_unit_norm(self, blobs_small):
        X, _ = blobs_small
        S = gram_matrix(X, GaussianKernel(0.3), zero_diagonal=True)
        mr = MRSpectralClustering(4, seed=0).fit(S)
        norms = np.linalg.norm(mr.embedding_, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_disconnected_cliques(self):
        S = np.zeros((8, 8))
        S[:4, :4] = 1.0
        S[4:, 4:] = 1.0
        np.fill_diagonal(S, 0.0)
        labels = MRSpectralClustering(2, seed=0).fit_predict(S)
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[7]

    def test_makespan_scales_with_cluster(self, blobs_small):
        X, _ = blobs_small
        S = gram_matrix(X, GaussianKernel(0.3), zero_diagonal=True)
        small = MRSpectralClustering(
            4, engine=MapReduceEngine(SimulatedCluster(1)), block_size=16, seed=0
        ).fit(S)
        big = MRSpectralClustering(
            4, engine=MapReduceEngine(SimulatedCluster(8)), block_size=16, seed=0
        ).fit(S)
        assert big.total_makespan_ <= small.total_makespan_

    def test_validation(self):
        with pytest.raises(ValueError):
            MRSpectralClustering(0)
        with pytest.raises(ValueError):
            MRSpectralClustering(2).fit(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            MRSpectralClustering(5).fit(np.eye(3))


class TestMRSVD:
    @pytest.fixture()
    def engine(self):
        return MapReduceEngine(SimulatedCluster(2))

    def test_matches_numpy_svd(self, engine, rng):
        from repro.mr_ml import mr_svd

        A = rng.standard_normal((60, 7))
        U, s, Vt = mr_svd(engine, A, block_size=13)
        ref = np.linalg.svd(A, compute_uv=False)
        assert np.allclose(s, ref, atol=1e-8)
        assert np.allclose(U @ np.diag(s) @ Vt, A, atol=1e-8)
        # Orthonormal factors.
        assert np.allclose(U.T @ U, np.eye(7), atol=1e-8)
        assert np.allclose(Vt @ Vt.T, np.eye(7), atol=1e-8)

    def test_truncated(self, engine, rng):
        from repro.mr_ml import mr_svd

        A = rng.standard_normal((40, 6))
        U, s, Vt = mr_svd(engine, A, n_components=2)
        assert U.shape == (40, 2) and s.shape == (2,) and Vt.shape == (2, 6)
        ref = np.linalg.svd(A, compute_uv=False)
        assert np.allclose(s, ref[:2], atol=1e-8)

    def test_rank_deficient(self, engine, rng):
        from repro.mr_ml import mr_svd

        base = rng.standard_normal((30, 2))
        A = base @ rng.standard_normal((2, 5))  # rank 2
        U, s, Vt = mr_svd(engine, A)
        assert s.shape[0] == 2
        assert np.allclose(U @ np.diag(s) @ Vt, A, atol=1e-8)

    def test_zero_matrix(self, engine):
        from repro.mr_ml import mr_svd

        U, s, Vt = mr_svd(engine, np.zeros((10, 3)))
        assert s.shape[0] == 0

    def test_rejects_1d(self, engine):
        from repro.mr_ml import mr_svd

        with pytest.raises(ValueError):
            mr_svd(engine, np.zeros(5))
