"""Tests for the end-to-end DASC estimator."""

import numpy as np
import pytest

from repro.baselines import PSC, NystromSpectralClustering
from repro.core import DASC, DASCConfig
from repro.data import make_blobs, make_moons, make_rings
from repro.kernels import GaussianKernel, gram_matrix
from repro.metrics import clustering_accuracy, fnorm_ratio
from repro.observability import Tracer, use_tracer
from repro.spectral import SpectralClustering, bucket_seed, cluster_bucket, normalized_laplacian
from repro.spectral.eigen import GATE_TOL, eigen_residuals


class TestFit:
    def test_recovers_blobs(self, blobs_small):
        X, y = blobs_small
        labels = DASC(4, seed=0).fit_predict(X)
        assert clustering_accuracy(y, labels) > 0.9

    def test_labels_cover_all_points(self, blobs_medium):
        X, _ = blobs_medium
        dasc = DASC(6, seed=0).fit(X)
        assert dasc.labels_.shape == (X.shape[0],)
        assert dasc.labels_.min() >= 0
        assert dasc.labels_.max() < dasc.n_clusters_

    def test_deterministic(self, blobs_small):
        X, _ = blobs_small
        a = DASC(4, seed=5).fit_predict(X)
        b = DASC(4, seed=5).fit_predict(X)
        assert np.array_equal(a, b)

    def test_nonfinite_input_rejected_with_column(self, blobs_small):
        X, _ = blobs_small
        X = X.copy()
        X[7, 3] = np.nan
        with pytest.raises(ValueError, match=r"non-finite.*column\(s\) \[3\]"):
            DASC(4, seed=0).fit(X)

    def test_inf_input_rejected(self, blobs_small):
        X, _ = blobs_small
        X = X.copy()
        X[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            DASC(4, seed=0).fit(X)

    def test_column_spanning_one_ulp_does_not_crash(self):
        # Table 3's top_span policy picks the column whose two values are
        # one ulp apart; its histogram cannot hold 20 finite bins.
        X = np.random.default_rng(0).random((300, 4))
        X[:, 3] = np.where(np.arange(300) % 2 == 0, 1.0, np.nextafter(1.0, 2.0))
        model = DASC(3, n_bits=4, dimension_policy="top_span").fit(X)
        assert model.labels_.shape == (300,)
        assert (model.labels_ >= 0).all()

    def test_defaults_resolved_from_data(self, blobs_small):
        X, _ = blobs_small
        dasc = DASC(seed=0).fit(X)  # no explicit K or M
        assert dasc.n_bits_ == 3  # floor(log2(400)/2) - 1
        assert dasc.sigma_ > 0
        assert dasc.n_clusters_ >= 1

    def test_single_bucket_matches_exact_sc(self, blobs_small):
        """Approximation knob at the coarse end: DASC(B=1) == exact SC."""
        X, y = blobs_small
        dasc = DASC(4, sigma=0.3, min_bucket_size=10**6, seed=0)
        sc = SpectralClustering(4, sigma=0.3, seed=0)
        acc_d = clustering_accuracy(y, dasc.fit_predict(X))
        acc_s = clustering_accuracy(y, sc.fit_predict(X))
        assert dasc.buckets_.n_buckets == 1
        assert acc_d == pytest.approx(acc_s, abs=0.02)

    def test_memory_never_exceeds_full_matrix(self, blobs_medium):
        X, _ = blobs_medium
        dasc = DASC(6, seed=1).fit(X)
        assert dasc.approx_kernel_.nbytes <= 4 * X.shape[0] ** 2

    def test_stage_times_recorded(self, blobs_small):
        X, _ = blobs_small
        dasc = DASC(4, seed=0).fit(X)
        assert {"hash", "bucket", "kernel", "spectral"} <= set(dasc.stopwatch_.laps)

    def test_config_object_and_overrides(self, blobs_small):
        X, _ = blobs_small
        cfg = DASCConfig(n_bits=5, sigma=0.4, seed=2)
        dasc = DASC(4, config=cfg).fit(X)
        assert dasc.n_bits_ == 5 and dasc.sigma_ == 0.4

    def test_estimators_work_on_a_copy_of_the_config(self):
        from repro.core.streaming import StreamingDASC
        from repro.dasc_mr import DistributedDASC

        cfg = DASCConfig(seed=0)
        a = DASC(4, config=cfg)
        b = DASC(config=cfg, n_bits=3)
        StreamingDASC(5, config=cfg)
        DistributedDASC(6, config=cfg)
        assert cfg == DASCConfig(seed=0)
        assert a.config.n_clusters == 4 and a.config.n_bits is None
        assert b.config.n_clusters is None and b.config.n_bits == 3

    def test_unknown_override_rejected(self):
        for option in ("bogus_option", "hasher", "extra", "resolve_sigma", "resolve_n_jobs"):
            with pytest.raises(TypeError, match="unknown DASC option"):
                DASC(4, **{option: 1})

    def test_custom_kernel(self, blobs_small):
        X, y = blobs_small
        dasc = DASC(4, kernel=GaussianKernel(0.3), seed=0)
        assert clustering_accuracy(y, dasc.fit_predict(X)) > 0.9

    @pytest.mark.parametrize("allocation", ["proportional", "fixed"])
    def test_allocation_policies_run(self, blobs_small, allocation):
        # 'fixed' intentionally produces more than K clusters (min(K, N_i)
        # per bucket), so Hungarian accuracy is the wrong yardstick there;
        # NMI tolerates refinements of the true partition.
        from repro.metrics import normalized_mutual_info

        X, y = blobs_small
        labels = DASC(4, allocation=allocation, seed=0).fit_predict(X)
        assert normalized_mutual_info(y, labels) > 0.7


class TestBucketSeed:
    def test_each_bucket_reclusters_alone(self, blobs_medium):
        """A bucket's labels depend on its block, K_i and bucket_seed(seed, b) only."""
        X, _ = blobs_medium
        dasc = DASC(12, n_bits=8, min_bucket_size=4, seed=3).fit(X)
        blocks = DASC(12, n_bits=8, min_bucket_size=4, seed=3).transform(X).blocks
        assert len(blocks) == dasc.buckets_.n_buckets > 1
        assert all(c.mode == "nystrom" for c in dasc.bucket_clusterings_)
        for b, block in enumerate(blocks):
            alone = cluster_bucket(
                block.shape[0], int(dasc.cluster_allocation_[b]), block, bucket_seed(3, b)
            )
            assert np.array_equal(alone.labels, dasc.bucket_clusterings_[b].labels), b

    def test_rule(self):
        assert bucket_seed(5, 2) == bucket_seed(np.int64(5), 2) == 7
        assert bucket_seed(None, 4) == bucket_seed(0, 4) == 4
        assert bucket_seed(2**31 - 1, 1) == 0


class TestPerBucketTask:
    """Each bucket's Gram block is built inside its own task and dropped."""

    def test_no_block_for_buckets_that_skip_the_eigensolve(self, blobs_small, monkeypatch):
        import repro.core.dasc as dasc_mod
        import repro.spectral.bucket as bucket_mod

        built = []
        real = bucket_mod.gram_matrix_auto

        def spy(rows, *args, **kwargs):
            built.append(rows.shape[0])
            return real(rows, *args, **kwargs)

        monkeypatch.setattr(bucket_mod, "gram_matrix_auto", spy)
        # Four 100-point buckets: k_i = n_i, k_i = 1, a solved one, k_i > n_i.
        monkeypatch.setattr(
            dasc_mod, "allocate_clusters", lambda *a, **k: np.array([100, 1, 3, 150])
        )
        X, _ = blobs_small
        est = DASC(4, n_bits=6, seed=0).fit(X)
        assert est.buckets_.sizes.tolist() == [100] * 4
        assert [c.mode for c in est.bucket_clusterings_] == ["nn", "const", "nystrom", "nn"]
        assert built == [100]

    def test_one_block_alive_at_a_time(self):
        """Two solved 1000-point buckets: the fit's traced peak stays below
        the float64 bytes of both blocks together. Serial: workers would
        build the blocks outside this process. The validated fit's bound is
        ``TestGramChecks::test_validated_fit_stays_within_one_block``."""
        from repro.data import make_blobs
        from repro.utils import traced_peak

        X, _ = make_blobs(n_samples=2000, n_clusters=4, n_features=16, cluster_std=0.03, seed=0)
        est, peak = traced_peak(lambda: DASC(8, seed=0, n_jobs=1, validate=False).fit(X))
        sizes = est.buckets_.sizes
        assert sizes.tolist() == [1000, 1000]
        assert [c.mode for c in est.bucket_clusterings_] == ["nystrom", "nystrom"]
        assert peak < 8 * int((sizes**2).sum()), peak

    def test_fit_keeps_the_accounting_not_the_blocks(self, blobs_small):
        X, _ = blobs_small
        fitted = DASC(4, seed=0).fit(X).approx_kernel_
        built = DASC(4, seed=0).transform(X)
        assert fitted.blocks is None and len(built.blocks) == built.n_blocks
        assert fitted.n_blocks == built.n_blocks
        assert fitted.nbytes == built.nbytes
        assert fitted.stored_entries == built.stored_entries
        assert fitted.block_sizes.tolist() == built.block_sizes.tolist()
        for method in (fitted.frobenius_norm, fitted.to_dense):
            with pytest.raises(RuntimeError, match=r"transform\(X\)"):
                method()


class TestLedgers:
    """Each fit accounts for itself alone: fitting again does not add to the
    last fit's time and memory ledgers."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DASC(4, seed=0),
            lambda: SpectralClustering(4, sigma=0.5, seed=0),
            lambda: PSC(4, sigma=0.5, seed=0),
            lambda: NystromSpectralClustering(4, sigma=0.5, seed=0),
        ],
        ids=["DASC", "SC", "PSC", "NYST"],
    )
    def test_refit_accounts_for_one_fit(self, make):
        X, _ = make_blobs(600, n_clusters=4, n_features=8, seed=0)
        once = make().fit(X)
        twice = make().fit(X).fit(X)
        assert once.memory_.total > 0
        assert twice.memory_.entries == once.memory_.entries
        assert list(twice.stopwatch_.laps) == list(once.stopwatch_.laps)

    def test_transform_after_fit_accounts_for_itself(self):
        X, _ = make_blobs(600, n_clusters=4, n_features=8, seed=0)
        est = DASC(4, seed=0).fit(X)
        approx = est.transform(X)
        assert est.memory_.total == approx.nbytes
        assert list(est.stopwatch_.laps) == ["hash", "bucket", "kernel"]


def _blobs_2d(n, centres, std, seed=0):
    rng = np.random.default_rng(seed)
    return np.asarray(centres, dtype=float)[np.arange(n) % len(centres)] + rng.normal(0.0, std, (n, 2))


_SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]

#: name -> (points, k, sigma); 400 points in one bucket with k <= 8 selects ARPACK.
HOSTILE_INPUTS = {
    "rings": (lambda: make_rings(400, 2, noise=0.02, seed=0)[0], 2, 0.05),
    "moons": (lambda: make_moons(400, noise=0.04, seed=0)[0], 2, 0.05),
    "disconnected_blobs": (lambda: _blobs_2d(400, _SQUARE, 0.01), 4, 0.02),
    "overlapping_blobs": (
        lambda: _blobs_2d(400, [(0, 0), (0.3, 0), (0, 0.3), (0.3, 0.3)], 0.15), 4, 0.15
    ),
}


def _one_bucket_fit(X, k, sigma, backend="auto"):
    """DASC over a single merged bucket, traced: the estimator and its records."""
    cfg = DASCConfig(
        n_clusters=k, sigma=sigma, min_shared_bits=0, seed=0, eig_backend=backend, validate=True
    )
    tracer = Tracer()
    with use_tracer(tracer):
        est = DASC(config=cfg).fit(X)
    assert est.buckets_.n_buckets == 1
    return est, tracer.sink.records


def _events(records, name):
    return [r["attributes"] for r in records if r["name"] == name]


def _same_partition(a, b):
    """Equal up to label numbering."""
    pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
    return pairs == np.unique(a).size == np.unique(b).size


class TestAutoEigensolver:
    """The default solver against dense on inputs that stress an iterative solve."""

    @pytest.mark.parametrize("name", sorted(HOSTILE_INPUTS))
    def test_matches_dense(self, name):
        make, k, sigma = HOSTILE_INPUTS[name]
        X = make()
        auto, records = _one_bucket_fit(X, k, sigma)
        dense, _ = _one_bucket_fit(X, k, sigma, backend="dense")
        assert [e["solver"] for e in _events(records, "eigen.solve")] == ["arpack"]
        assert _events(records, "eigen.fallback") == []
        assert _same_partition(auto.labels_, dense.labels_)
        auto_vals = auto.bucket_clusterings_[0].eigenvalues
        dense_vals = dense.bucket_clusterings_[0].eigenvalues
        assert np.abs(auto_vals - dense_vals).max() <= 1e-10

    def test_eigenspace_wider_than_k(self):
        """Six components and k=3: eigenvalue 1 has multiplicity 6, so any
        three orthonormal vectors of that space are a valid answer. ARPACK and
        dense pick different ones (here their partitions disagree), so only
        the eigenvalues and each answer's residual are compared."""
        centres = _SQUARE + [(2, 0), (2, 1)]
        X = _blobs_2d(400, centres, 0.01)
        auto, records = _one_bucket_fit(X, 3, 0.02)
        dense, _ = _one_bucket_fit(X, 3, 0.02, backend="dense")
        assert [e["solver"] for e in _events(records, "eigen.solve")] == ["arpack"]
        L = normalized_laplacian(DASC(config=dense.config).transform(X).blocks[0])
        for est in (auto, dense):
            bucket = est.bucket_clusterings_[0]
            assert np.abs(bucket.eigenvalues - 1.0).max() <= 1e-10
            residual, ortho = eigen_residuals(L, bucket.eigenvalues, bucket.basis)
            assert residual <= GATE_TOL and ortho <= GATE_TOL

    @pytest.mark.parametrize("n, solver", [(400, "arpack"), (200, "dense")])
    def test_trace_names_the_solver_per_bucket(self, n, solver):
        X, _ = make_moons(n, noise=0.04, seed=0)
        _, records = _one_bucket_fit(X, 2, 0.05)
        (bucket_span,) = [r for r in records if r["name"] == "spectral.bucket"]
        assert bucket_span["attributes"] == {"n_i": n, "k_i": 2}
        (solve,) = [r for r in records if r["name"] == "eigen.solve"]
        assert solve["parent_id"] == bucket_span["span_id"]
        assert solve["attributes"]["solver"] == solver


class TestTransform:
    def test_transform_returns_block_kernel_without_clustering(self, blobs_small):
        X, _ = blobs_small
        dasc = DASC(seed=0, n_bits=4)
        approx = dasc.transform(X)
        assert approx.n_samples == X.shape[0]
        assert dasc.labels_ is None  # no clustering ran

    def test_transform_blocks_match_true_kernel(self, blobs_small):
        X, _ = blobs_small
        dasc = DASC(seed=0, sigma=0.3, n_bits=4)
        approx = dasc.transform(X)
        full = gram_matrix(X, GaussianKernel(0.3), zero_diagonal=True)
        dense = approx.to_dense()
        mask = dense != 0
        assert np.allclose(dense[mask], full[mask])

    def test_fnorm_ratio_reasonable_on_clustered_data(self, blobs_small):
        """Clustered data keeps most spectral mass inside buckets (Fig. 5)."""
        X, _ = blobs_small
        dasc = DASC(seed=0, sigma=0.3)
        approx = dasc.transform(X)
        full = gram_matrix(X, GaussianKernel(0.3), zero_diagonal=True)
        assert fnorm_ratio(approx, full) > 0.5


class TestPartition:
    def test_partition_only(self, blobs_small):
        X, _ = blobs_small
        dasc = DASC(seed=0)
        buckets = dasc.partition(X)
        assert buckets.sizes.sum() == X.shape[0]
        assert dasc.approx_kernel_ is None

    def test_min_bucket_size_enforced(self, blobs_medium):
        X, _ = blobs_medium
        dasc = DASC(6, min_bucket_size=20, n_bits=6, seed=0)
        buckets = dasc.partition(X)
        if buckets.n_buckets > 1:
            assert buckets.sizes.min() >= 20
