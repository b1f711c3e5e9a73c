"""Checkpointed job-flow recovery: crash, resume, structured failures."""

import numpy as np
import pytest

from repro.core import DASCConfig
from repro.dasc_mr import DistributedDASC
from repro.mapreduce import (
    ElasticMapReduce,
    FaultPolicy,
    FaultyEngine,
    JobFlowError,
    JobSpec,
    MapReduceEngine,
    SimulatedHDFS,
)
from repro.mapreduce.job import JobFlow


def double_mapper(key, value, ctx):
    yield (key, value * 2)


def sum_reducer(key, values, ctx):
    yield (key, sum(values))


def make_flow(store=None):
    flow = JobFlow(
        engine=MapReduceEngine(),
        fs=SimulatedHDFS(2),
        checkpoint_store=store,
        checkpoint_prefix="flows/test/checkpoints",
    )
    flow.fs.write("in", [(i, i) for i in range(10)], split_size=4)
    flow.add_job(JobSpec(name="double", mapper=double_mapper), "in", "mid")
    flow.add_job(JobSpec(name="sum", mapper=double_mapper, reducer=sum_reducer), "mid", "out")
    return flow


class TestJobFlowCheckpointing:
    def test_checkpoints_written_per_job_step(self):
        from repro.mapreduce import S3Store

        store = S3Store()
        flow = make_flow(store)
        flow.run()
        assert store.exists("flows/test/checkpoints/step-000")
        assert store.exists("flows/test/checkpoints/step-001")

    def test_max_steps_simulates_crash(self):
        from repro.mapreduce import S3Store

        store = S3Store()
        flow = make_flow(store)
        flow.run(max_steps=1)
        assert len(flow.results) == 1
        assert not flow.fs.exists("out")

    def test_resume_restores_completed_steps(self):
        from repro.mapreduce import S3Store

        store = S3Store()
        complete = make_flow(store=None)
        complete.run()
        expected = complete.fs.read("out")

        flow = make_flow(store)
        flow.run(max_steps=1)  # crash after step 0
        results = flow.run(resume=True)
        assert flow.restored_steps == [0]
        assert results[0].from_checkpoint
        assert not results[1].from_checkpoint
        assert flow.fs.read("out") == expected
        # The restored step reports its original counters and makespan.
        assert results[0].counters.value("job", "map_tasks") == 3
        assert results[0].makespan > 0

    def test_resume_without_checkpoints_reruns_everything(self):
        flow = make_flow(store=None)
        flow.run(max_steps=1)
        results = flow.run(resume=True)
        assert flow.restored_steps == []
        assert not results[0].from_checkpoint


class TestJobFlowError:
    def test_exhausted_retries_surface_structured_error(self):
        flow = make_flow()
        flow.engine = FaultyEngine(policy=FaultPolicy(failure_rate=0.99, max_attempts=1, seed=0))
        with pytest.raises(JobFlowError) as err:
            flow.run()
        assert err.value.step_index == 0
        assert err.value.step_name == "double"
        assert err.value.counters is not None
        assert err.value.counters.value("faults", "map_failures") > 0


class TestDistributedDASCResume:
    @pytest.mark.parametrize("crash_after", [1, 2])
    def test_resume_after_driver_crash(self, blobs_small, crash_after):
        """A crash between stages resumes from checkpoints with identical labels."""
        X, _ = blobs_small
        baseline = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0)).run(X)

        emr = ElasticMapReduce()
        dasc = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0), emr=emr)
        flow_id = dasc.submit(X)
        emr.run_job_flow(flow_id, max_steps=crash_after)  # driver dies mid-flow
        with pytest.raises(RuntimeError):
            dasc.collect(flow_id)  # incomplete flow is not collectable
        result = dasc.resume(flow_id)

        assert np.array_equal(result.labels, baseline.labels)
        # Stage 1 (the LSH pass) was restored, not redone.
        assert 0 in result.resumed_steps
        assert result.counters == baseline.counters
        assert result.makespan == pytest.approx(baseline.makespan)

    def test_unknown_flow_rejected(self, blobs_small):
        dasc = DistributedDASC(4, n_nodes=2)
        with pytest.raises(KeyError):
            dasc.collect("j-999999")
