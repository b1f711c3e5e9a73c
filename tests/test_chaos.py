"""Chaos tests: the output-equivalence invariant under injected failures.

The fault-tolerance layer's contract: under any failure schedule that stays
below the attempt cap — task failures, node preemptions, stragglers raced
by speculation — ``DistributedDASC.run`` produces labels byte-identical to
the fault-free run; only the simulated makespan and the ``faults`` counter
group may differ.
"""

import numpy as np
import pytest

from repro.core import DASCConfig
from repro.dasc_mr import DistributedDASC
from repro.mapreduce import ElasticMapReduce, FaultyEngine
from repro.mapreduce.faults import FaultPolicy, NodeFailurePolicy, StragglerPolicy


class ChaosEMR(ElasticMapReduce):
    """EMR whose provisioned flows run on a fault-injecting engine."""

    def __init__(self, **fault_kwargs):
        super().__init__()
        self._fault_kwargs = fault_kwargs

    def create_job_flow(self, n_nodes, *, split_size=1024, checkpoint=True):
        flow_id, flow = super().create_job_flow(
            n_nodes, split_size=split_size, checkpoint=checkpoint
        )
        flow.engine = FaultyEngine(flow.engine.cluster, **self._fault_kwargs)
        return flow_id, flow


def run_dasc(X, emr=None):
    return DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0), emr=emr).run(X)


def counters_without_faults(counters: dict) -> dict:
    return {
        stage: {g: dict(names) for g, names in groups.items() if g != "faults"}
        for stage, groups in counters.items()
    }


# Failure schedules swept by the equivalence test. Explicit node kills hit
# every phase of the pipeline (stage-1 map, stage-2 map, stage-2 reduce);
# rate-based schedules exercise the random paths across seeds.
SCHEDULES = {
    "tasks-light": dict(policy=FaultPolicy(failure_rate=0.1, max_attempts=12, seed=1)),
    "tasks-heavy": dict(policy=FaultPolicy(failure_rate=0.3, max_attempts=16, seed=2)),
    "node-kill-every-phase": dict(
        node_policy=NodeFailurePolicy(kills=((0, 1, 0.5), (1, 2, 0.6), (2, 0, 0.4)))
    ),
    "node-kill-random": dict(node_policy=NodeFailurePolicy(rate=0.35, seed=3)),
    "stragglers-speculation": dict(
        straggler_policy=StragglerPolicy(rate=0.3, slowdown=(3.0, 8.0), seed=4)
    ),
    "everything-at-once": dict(
        policy=FaultPolicy(failure_rate=0.15, max_attempts=12, seed=5),
        node_policy=NodeFailurePolicy(kills=((0, 3, 0.5),), rate=0.2, seed=6),
        straggler_policy=StragglerPolicy(rate=0.25, slowdown=(2.0, 6.0), seed=7),
    ),
}


class TestChaosEquivalence:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("seed_shift", [0, 10])
    def test_labels_identical_inline(self, blobs_small, schedule, seed_shift):
        X, _ = blobs_small
        baseline = run_dasc(X)
        kwargs = {
            key: type(policy)(**{**policy.__dict__, "seed": policy.seed + seed_shift})
            for key, policy in SCHEDULES[schedule].items()
        }
        chaotic = run_dasc(X, emr=ChaosEMR(**kwargs))
        assert np.array_equal(chaotic.labels, baseline.labels)
        assert chaotic.n_clusters == baseline.n_clusters
        assert chaotic.n_buckets == baseline.n_buckets
        assert chaotic.makespan >= baseline.makespan
        # Every counter except the faults group matches the clean run.
        assert counters_without_faults(chaotic.counters) == counters_without_faults(
            baseline.counters
        )

    def test_fault_counters_reported(self, blobs_small):
        X, _ = blobs_small
        result = run_dasc(X, emr=ChaosEMR(**SCHEDULES["node-kill-every-phase"]))
        total_kills = sum(
            stage.get("faults", {}).get("node_failures", 0)
            for stage in result.counters.values()
        )
        assert total_kills >= 2  # stage-1 and stage-2 phases each lost a node


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
