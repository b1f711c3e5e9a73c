"""Tests for the MapReduce implementation of DASC (Algorithms 1-2 + driver)."""

import gc
import weakref
import zlib

import numpy as np
import pytest

from repro.core import DASC, DASCConfig
from repro.dasc_mr import DistributedDASC, make_signature_job, signature_mapper
from repro.dasc_mr.stage2 import make_clustering_job
from repro.data.synthetic import make_blobs
from repro.lsh.axis import AxisParallelHasher
from repro.mapreduce import ElasticMapReduce, MapReduceEngine
from repro.metrics import clustering_accuracy


class TestStage1:
    def test_mapper_matches_hasher(self, blobs_small):
        """Algorithm 1 (scalar per-record path) == the vectorised hasher."""
        X, _ = blobs_small
        hasher = AxisParallelHasher(5, seed=0).fit(X)
        job = make_signature_job(hasher.dimensions_, hasher.thresholds_)
        result = MapReduceEngine().run(job, [[(i, X[i]) for i in range(40)]])
        mr_sigs = {idx: int(sig) for sig, idx in result.output}
        vec_sigs = hasher.hash(X[:40])
        for i in range(40):
            assert mr_sigs[i] == int(vec_sigs[i])

    def test_map_cost_is_m_per_record(self, blobs_small):
        X, _ = blobs_small
        hasher = AxisParallelHasher(7, seed=0).fit(X)
        job = make_signature_job(hasher.dimensions_, hasher.thresholds_)
        result = MapReduceEngine().run(job, [[(i, X[i]) for i in range(10)]])
        assert result.map_stats.total_cost == 70.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_signature_job([0, 1], [0.5])  # length mismatch


class TestStage1Checkpoint:
    def test_checkpoint_holds_signature_index_pairs(self, blobs_small):
        """The flow checkpoints Algorithm 1's output: plain (signature, index)."""
        X, _ = blobs_small
        cfg = DASCConfig(seed=0)
        emr = ElasticMapReduce()
        dasc = DistributedDASC(4, n_nodes=4, config=cfg, emr=emr)
        flow_id = dasc.submit(X)
        emr.run_job_flow(flow_id)
        dasc.collect(flow_id)
        output = emr.storage.get(f"{flow_id}/checkpoints/step-000")["output"]
        assert all(
            type(r) is tuple and len(r) == 2 and type(r[0]) is int and type(r[1]) is int
            for r in output
        )
        assert sorted(idx for _, idx in output) == list(range(X.shape[0]))
        expected = DASC(4, config=cfg).fit(X).signatures_
        assert all(sig == int(expected[idx]) for sig, idx in output)

    def test_finished_run_freed_without_the_gc(self, blobs_small):
        """No reference cycle keeps a run's driver or job flow alive."""
        X, _ = blobs_small
        gc.disable()
        try:
            dasc = DistributedDASC(4, n_nodes=4)
            driver = weakref.ref(dasc)
            dasc.run(X)
            (entry,) = dasc.emr._flows.values()
            flow = weakref.ref(entry.flow)
            del dasc, entry
            assert driver() is None
            assert flow() is None
        finally:
            gc.enable()


class TestStage2:
    def test_reduce_cost_follows_eq3(self):
        allocation = {0: (2, 0)}
        job = make_clustering_job(sigma=1.0, allocation=allocation, n_reducers=1)
        members = [(i, np.zeros(3)) for i in range(5)]
        # 2 * 5^2 + 2 * 2 * 5 = 70.
        assert job.reduce_cost(0, members) == 70.0

    def test_reducer_emits_offset_labels(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 0.01, (10, 3)), rng.normal(1, 0.01, (10, 3))])
        allocation = {0: (2, 7)}  # K_i = 2, offset 7
        job = make_clustering_job(sigma=0.5, allocation=allocation, n_reducers=1, seed=0)
        records = [(0, (i, X[i])) for i in range(20)]
        result = MapReduceEngine().run(job, [records])
        labels = dict(result.output)
        assert set(labels.values()) == {7, 8}

    def test_invalid_reducers(self):
        with pytest.raises(ValueError):
            make_clustering_job(sigma=1.0, allocation={}, n_reducers=0)


class TestDistributedDASC:
    def test_agrees_with_local_dasc(self, blobs_small):
        X, y = blobs_small
        local = DASC(4, seed=0).fit_predict(X)
        dist = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0)).run(X).labels
        # Same buckets, allocation and per-bucket seeds -> identical labels.
        assert np.array_equal(local, dist)

    @pytest.mark.parametrize("eig_backend", ["dense", "arpack", "lanczos"])
    @pytest.mark.parametrize(
        "allocation, refine, zero_diagonal",
        [
            pytest.param(a, r, zd, id=f"{a}-{r}" + ("" if zd else "-keep_diagonal"))
            for zd in (True, False)
            for a, r in [("proportional", True), ("sqrt", True), ("fixed", False)]
        ],
    )
    def test_labels_identical_to_local_dasc(
        self, blobs_medium, allocation, refine, zero_diagonal, eig_backend
    ):
        """Local and distributed label alike for every allocation DASC does not refine."""
        X, _ = blobs_medium
        cfg = DASCConfig(
            n_bits=8, min_bucket_size=4, seed=0, allocation=allocation,
            refine_to_k=refine, eig_backend=eig_backend, zero_diagonal=zero_diagonal,
        )
        local = DASC(6, config=cfg).fit_predict(X)
        dist = DistributedDASC(6, n_nodes=4, config=cfg).run(X).labels
        assert np.array_equal(local, dist)

    def test_accuracy_on_blobs(self, blobs_small):
        X, y = blobs_small
        res = DistributedDASC(4, n_nodes=8).run(X)
        assert clustering_accuracy(y, res.labels) > 0.9

    def test_every_point_labelled(self, blobs_medium):
        X, _ = blobs_medium
        res = DistributedDASC(6, n_nodes=4).run(X)
        assert res.labels.shape == (X.shape[0],)
        assert (res.labels >= 0).all()

    def test_elasticity_makespan_monotone(self, blobs_medium):
        """More nodes never increase the simulated makespan (Table 3)."""
        X, _ = blobs_medium
        cfg = dict(n_bits=8, min_bucket_size=4, seed=0)
        spans = [
            DistributedDASC(6, n_nodes=n, config=DASCConfig(**cfg)).run(X).makespan
            for n in (1, 4, 16)
        ]
        assert spans[0] >= spans[1] >= spans[2]

    def test_accuracy_invariant_across_node_counts(self, blobs_small):
        """Table 3: node count affects time, not results."""
        X, y = blobs_small
        labels = [
            DistributedDASC(4, n_nodes=n, config=DASCConfig(seed=0)).run(X).labels
            for n in (2, 32)
        ]
        assert np.array_equal(labels[0], labels[1])

    def test_memory_is_block_diagonal(self, blobs_small):
        X, _ = blobs_small
        res = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0)).run(X)
        assert res.gram_bytes <= 4 * X.shape[0] ** 2

    def test_counters_present(self, blobs_small):
        X, _ = blobs_small
        res = DistributedDASC(4, n_nodes=2).run(X)
        assert res.counters["stage1"]["dasc"]["signatures_emitted"] == X.shape[0]
        assert res.counters["stage2"]["dasc"]["buckets_reduced"] == res.n_buckets

    def test_non_axis_hasher_rejected(self):
        with pytest.raises(ValueError):
            DistributedDASC(4, config=DASCConfig(hasher="pca"))

    def test_eigengap_allocation_rejected(self):
        with pytest.raises(ValueError, match="eigengap"):
            DistributedDASC(4, config=DASCConfig(allocation="eigengap"))

    def test_spectral_mode_rejected(self):
        with pytest.raises(TypeError):
            DistributedDASC(4, spectral_mode="inline")

    def test_numpy_integer_seed_matches_int_seed(self):
        X, _ = make_blobs(300, 4, seed=0)
        plain = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=5)).run(X)
        numpy_seed = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=np.int64(5))).run(X)
        assert np.array_equal(numpy_seed.labels, plain.labels)

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            DistributedDASC(4, n_nodes=0)

    def test_s3_artifacts_written(self, blobs_small):
        X, _ = blobs_small
        from repro.mapreduce import ElasticMapReduce

        emr = ElasticMapReduce()
        DistributedDASC(4, n_nodes=2, emr=emr).run(X)
        keys = emr.s3.list_keys()
        assert any(k.endswith("/input") for k in keys)
        assert any(k.endswith("/output/labels") for k in keys)

    def test_exact_output_pinned(self):
        """Golden labels, buckets, makespans and task counts of one seeded run.

        Holds serially, under ``REPRO_N_JOBS=2`` and under
        ``REPRO_VALIDATE=1``: none of them may move a label or a makespan.
        """
        X, _ = make_blobs(n_samples=400, n_clusters=4, n_features=16, seed=3)
        res = DistributedDASC(
            4, n_nodes=4, config=DASCConfig(seed=0), split_size=64
        ).run(X)
        assert zlib.crc32(res.labels.astype(np.int64).tobytes()) == 1680017207
        assert res.n_buckets == 3
        assert res.makespan == 81056.0
        assert res.stage_makespans == {"lsh": 192.0, "spectral": 80864.0}
        assert res.counters["stage1"]["job"] == {"map_tasks": 7}
        assert res.counters["stage2"]["job"] == {"map_tasks": 7, "reduce_tasks": 3}
