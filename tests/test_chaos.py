"""Driver degradation: what ``DistributedDASC`` does when its inputs or
its solver misbehave.

Nothing here injects a fault into the engine. Duplicate-heavy inputs must
not produce sigma = 0, an invalid explicit sigma is rejected before a job
flow is provisioned, missing label records degrade to nearest-neighbour
repair (and an empty label file to a structured error), and a Lanczos
failure falls back to the dense eigensolver.
"""

import numpy as np
import pytest

from repro.core import DASCConfig
from repro.dasc_mr import DistributedDASC
from repro.mapreduce import ElasticMapReduce


class TestDriverDegradation:
    def test_duplicate_heavy_data_runs(self):
        """All-duplicate inputs must not produce sigma = 0 or crash."""
        X = np.zeros((60, 4))
        X[:5] += 1.0
        result = DistributedDASC(2, n_nodes=2, config=DASCConfig(seed=0)).run(X)
        assert result.labels.shape == (60,)
        assert (result.labels >= 0).all()

    def test_invalid_explicit_sigma_rejected(self):
        """Every estimator rejects a sigma that is not > 0 before clustering."""
        from repro.core import DASC
        from repro.core.streaming import StreamingDASC

        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        for sigma in (0.0, -1.0, float("nan")):
            cfg = DASCConfig(seed=0, sigma=sigma)
            with pytest.raises(ValueError, match="sigma"):
                DASC(2, config=cfg).fit(X)
            with pytest.raises(ValueError, match="sigma"):
                StreamingDASC(2, config=cfg).calibrate(X)
            emr = ElasticMapReduce()
            with pytest.raises(ValueError, match="sigma"):
                DistributedDASC(2, n_nodes=2, config=cfg, emr=emr).submit(X)
            assert not emr._flows, "a job flow was provisioned for an invalid sigma"

    def test_unlabelled_points_repaired(self, blobs_small):
        """Missing label records degrade to nearest-neighbour repair."""
        X, _ = blobs_small
        emr = ElasticMapReduce()
        dasc = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0), emr=emr)
        flow_id = dasc.submit(X)
        emr.run_job_flow(flow_id)
        flow = dasc._pending[flow_id]["flow"]
        records = flow.fs.read("labels")
        flow.fs.write("labels", records[:-7], overwrite=True)
        baseline = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0)).run(X)
        result = dasc.collect(flow_id)
        assert result.n_repaired == 7
        assert (result.labels >= 0).all()
        # Well-separated blobs: the nearest labelled neighbour sits in the
        # same cluster, so repair reconstructs the fault-free labels.
        assert np.array_equal(result.labels, baseline.labels)

    def test_all_labels_missing_raises(self, blobs_small):
        X, _ = blobs_small
        emr = ElasticMapReduce()
        dasc = DistributedDASC(4, n_nodes=2, config=DASCConfig(seed=0), emr=emr)
        flow_id = dasc.submit(X)
        emr.run_job_flow(flow_id)
        flow = dasc._pending[flow_id]["flow"]
        flow.fs.write("labels", [], overwrite=True)
        with pytest.raises(RuntimeError, match="no labels"):
            dasc.collect(flow_id)

    def test_lanczos_nonconvergence_falls_back_to_dense(self, monkeypatch):
        import repro.spectral.eigen as eigen_mod
        from repro.spectral.eigen import top_eigenvectors

        def broken(*args, **kwargs):
            raise RuntimeError("tridiagonal QL failed to converge at index 0")

        monkeypatch.setattr(eigen_mod, "lanczos_top_eigenpairs", broken)
        rng = np.random.default_rng(1)
        A = rng.normal(size=(12, 12))
        A = A + A.T
        vals, vecs = top_eigenvectors(A, 3, backend="lanczos", seed=0)
        ref_vals, _ = top_eigenvectors(A, 3, backend="dense")
        assert np.allclose(vals, ref_vals)
        assert vecs.shape == (12, 3)
