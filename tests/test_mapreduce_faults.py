"""Tests for fault injection and task re-execution in the MapReduce engine."""

import numpy as np
import pytest

from repro.mapreduce import JobSpec, MapReduceEngine, NodeConfig, SimulatedCluster, SimulatedHDFS
from repro.mapreduce.cluster import PhaseTask, SpeculationConfig
from repro.mapreduce.faults import (
    FaultPolicy,
    FaultyEngine,
    NodeFailurePolicy,
    StragglerPolicy,
    TaskFailedError,
)


def wc_mapper(key, value, ctx):
    for word in value.split():
        yield (word, 1)


def wc_reducer(key, values, ctx):
    yield (key, sum(values))


def wc_job():
    return JobSpec(name="wc", mapper=wc_mapper, reducer=wc_reducer)


SPLITS = [[(0, "a b a c")], [(1, "b b a")], [(2, "c a")]]


class TestFaultPolicy:
    def test_zero_rate_never_fails(self):
        oracle = FaultPolicy(failure_rate=0.0).make_oracle()
        assert not any(oracle() for _ in range(100))

    def test_rate_approximately_respected(self):
        oracle = FaultPolicy(failure_rate=0.3, seed=1).make_oracle()
        rate = sum(oracle() for _ in range(5000)) / 5000
        assert abs(rate - 0.3) < 0.03

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(failure_rate=1.0)
        with pytest.raises(ValueError):
            FaultPolicy(max_attempts=0)


class TestFaultyEngine:
    def test_output_identical_to_plain_engine(self):
        """Re-execution of deterministic tasks must not change results."""
        plain = MapReduceEngine().run(wc_job(), SPLITS)
        faulty = FaultyEngine(policy=FaultPolicy(failure_rate=0.4, max_attempts=12, seed=7)).run(
            wc_job(), SPLITS
        )
        assert dict(plain.output) == dict(faulty.output)

    def test_retries_counted(self):
        faulty = FaultyEngine(policy=FaultPolicy(failure_rate=0.5, max_attempts=12, seed=3)).run(
            wc_job(), SPLITS
        )
        total_failures = faulty.counters.value("faults", "map_failures") + faulty.counters.value(
            "faults", "reduce_failures"
        )
        assert total_failures > 0  # at 50% rate over 6 tasks, overwhelmingly likely

    def test_wasted_work_charged_to_clock(self):
        job = JobSpec(name="wc", mapper=wc_mapper, reducer=wc_reducer,
                      map_cost=lambda k, v: 10.0)
        plain = MapReduceEngine(SimulatedCluster(1)).run(job, SPLITS)
        faulty = FaultyEngine(
            SimulatedCluster(1), policy=FaultPolicy(failure_rate=0.5, max_attempts=12, seed=3)
        ).run(job, SPLITS)
        assert faulty.map_stats.total_cost >= plain.map_stats.total_cost
        if faulty.counters.value("faults", "map_failures") > 0:
            assert faulty.map_stats.total_cost > plain.map_stats.total_cost

    def test_exhausted_attempts_raise(self):
        # With failure_rate just below 1 and 1 attempt, failure is certain
        # at some task among many.
        policy = FaultPolicy(failure_rate=0.99, max_attempts=1, seed=0)
        with pytest.raises(TaskFailedError):
            FaultyEngine(policy=policy).run(wc_job(), SPLITS * 20)

    def test_zero_rate_behaves_exactly_like_plain(self):
        # HDFS splits give the map phase replica placements to honour, and
        # one map slot per node makes tasks queue and weigh remote runs.
        fs = SimulatedHDFS(4, replication=2, default_split_size=1)
        fs.write("in", [(i, " ".join("abcde"[: 1 + i % 5])) for i in range(12)])
        job = JobSpec(name="wc", mapper=wc_mapper, reducer=wc_reducer, n_reducers=6,
                      map_cost=lambda k, v: float(len(v.split())))
        node = NodeConfig(map_slots=1, reduce_slots=1)
        plain = MapReduceEngine(SimulatedCluster(4, node=node)).run(job, fs.splits("in"))
        faulty = FaultyEngine(
            SimulatedCluster(4, node=node), policy=FaultPolicy(failure_rate=0.0)
        ).run(job, fs.splits("in"))
        assert dict(plain.output) == dict(faulty.output)
        assert plain.map_stats.n_local_tasks < plain.map_stats.n_tasks  # some ran remotely
        for phase in ("map_stats", "reduce_stats"):
            a, b = getattr(plain, phase), getattr(faulty, phase)
            assert a.makespan == b.makespan
            assert a.per_slot_cost == b.per_slot_cost
            assert a.assigned_nodes == b.assigned_nodes
            assert a.n_local_tasks == b.n_local_tasks
            assert a.total_cost == b.total_cost
        counters = faulty.counters.as_dict()
        assert not any(counters.pop("faults", {}).values())
        assert counters == plain.counters.as_dict()

    def test_retries_do_not_inflate_record_counters(self):
        """Only the faults group may grow on re-executed attempts."""
        plain = MapReduceEngine().run(wc_job(), SPLITS)
        faulty = FaultyEngine(policy=FaultPolicy(failure_rate=0.5, max_attempts=12, seed=3)).run(
            wc_job(), SPLITS
        )
        failures = faulty.counters.value("faults", "map_failures") + faulty.counters.value(
            "faults", "reduce_failures"
        )
        assert failures > 0
        for group in ("map", "shuffle", "reduce", "job"):
            assert faulty.counters.group(group) == plain.counters.group(group)

    def test_dasc_pipeline_survives_faults(self, blobs_small):
        """End to end: distributed DASC is correct under 30% task failures."""
        from repro.core import DASCConfig
        from repro.dasc_mr import DistributedDASC
        from repro.mapreduce.emr import ElasticMapReduce
        from repro.metrics import clustering_accuracy

        X, y = blobs_small

        class FaultyEMR(ElasticMapReduce):
            def create_job_flow(self, n_nodes, *, split_size=1024):
                flow_id, flow = super().create_job_flow(n_nodes, split_size=split_size)
                flow.engine = FaultyEngine(
                    flow.engine.cluster, policy=FaultPolicy(failure_rate=0.3, max_attempts=12, seed=5)
                )
                return flow_id, flow

        result = DistributedDASC(
            4, n_nodes=4, config=DASCConfig(seed=0), emr=FaultyEMR()
        ).run(X)
        assert clustering_accuracy(y, result.labels) > 0.9


class TestSimulatePhase:
    def test_clean_phase_matches_plain_schedule(self):
        # LPT by hand on 2 nodes x 2 map slots (slots 0-1 on node 0, 2-3 on
        # node 1): 9->s0, 8->s1, 5->s2, 4->s3, 3 (task 1)->s3, 3 (task 7)->s2,
        # 2->s3, and 1 ties s1 with s2 at 8 and takes the lower slot, s1.
        cluster = SimulatedCluster(2, node=NodeConfig(map_slots=2, reduce_slots=1))
        costs = [5.0, 3.0, 8.0, 1.0, 2.0, 9.0, 4.0, 3.0]
        sim = cluster.simulate_phase([PhaseTask(c) for c in costs], phase="map")
        assert sim.per_slot_cost == [9.0, 9.0, 8.0, 9.0]
        assert sim.assigned_nodes == [1, 1, 0, 0, 1, 0, 1, 1]
        assert sim.makespan == 9.0
        assert sim.total_cost == 35.0
        assert sim.n_local_tasks == 8
        assert sim.n_node_failures == 0
        assert sim.wasted_cost == 0.0

    def test_rerun_off_replicas_counts_as_remote(self):
        # Task 0 loses node 0 at t=2 and reruns on node 2, which holds no
        # replica of its split: it pays the remote penalty (4.0 -> 5.0), so
        # only the other two tasks count as data-local.
        cluster = SimulatedCluster(3, node=NodeConfig(map_slots=1, reduce_slots=1))
        tasks = [
            PhaseTask(4.0, preferred_nodes=(0, 1)),
            PhaseTask(4.0, preferred_nodes=(1,)),
            PhaseTask(1.0, preferred_nodes=(2,)),
        ]
        clean = cluster.simulate_phase(tasks, phase="map")
        killed = cluster.simulate_phase(tasks, phase="map", node_failures=[(0, 0.5)])
        assert clean.n_local_tasks == 3
        assert killed.per_slot_cost == [2.0, 4.0, 6.0]
        assert killed.assigned_nodes == [2, 1, 2]
        assert killed.n_local_tasks == 2

    def test_backup_off_replicas_pays_remote_penalty(self):
        # Every split lives on node 0. The straggler (1.0 x 10) runs there
        # from 0; its backup starts on node 1 at the median runtime, 1.0,
        # reads the split remotely (1.0 -> 1.25) and wins at 2.25. Task 0
        # then runs locally 2.25-3.25 and task 2 remotely 2.25-3.5, so only
        # task 0 counts as data-local.
        cluster = SimulatedCluster(2, node=NodeConfig(map_slots=1, reduce_slots=1))
        tasks = [
            PhaseTask(1.0, preferred_nodes=(0,)),
            PhaseTask(1.0, slowdown=10.0, preferred_nodes=(0,)),
            PhaseTask(1.0, preferred_nodes=(0,)),
        ]
        sim = cluster.simulate_phase(tasks, phase="map", speculation=SpeculationConfig())
        assert sim.speculative_won == 1
        assert sim.per_slot_cost == [3.25, 2.5]
        assert sim.makespan == 3.5
        assert sim.assigned_nodes == [0, 1, 1]
        assert sim.n_local_tasks == 1

    def test_rerun_after_every_replica_died_counts_as_remote(self):
        # Task 0's only replica holder, node 0, dies at t=2. Its re-run on
        # node 1 reads the split remotely (4.0 -> 5.0) and ends at 7.0.
        cluster = SimulatedCluster(3, node=NodeConfig(map_slots=1, reduce_slots=1))
        tasks = [PhaseTask(4.0, preferred_nodes=(0,)), PhaseTask(1.0, preferred_nodes=(1,))]
        killed = cluster.simulate_phase(tasks, phase="map", node_failures=[(0, 0.5)])
        assert killed.per_slot_cost == [2.0, 6.0, 0.0]
        assert killed.makespan == 7.0
        assert killed.assigned_nodes == [1, 1]
        assert killed.n_local_tasks == 1

    def test_map_node_kill_loses_outputs_and_recharges(self):
        cluster = SimulatedCluster(2)
        tasks = [PhaseTask(4.0) for _ in range(16)]
        clean = cluster.simulate_phase(tasks, phase="map")
        killed = cluster.simulate_phase(tasks, phase="map", node_failures=[(0, 0.9)])
        assert killed.n_node_failures == 1
        assert killed.n_tasks_lost + killed.n_map_outputs_lost > 0
        assert killed.n_map_outputs_lost > 0  # completed maps died with the node
        assert killed.makespan > clean.makespan
        assert killed.total_cost > clean.total_cost
        assert killed.wasted_cost > 0

    def test_completed_reduces_survive_node_kill(self):
        cluster = SimulatedCluster(2)
        tasks = [PhaseTask(4.0) for _ in range(8)]
        killed = cluster.simulate_phase(tasks, phase="reduce", node_failures=[(1, 1.0)])
        # At the very end of the phase everything has completed; reduce
        # outputs live on the DFS, so nothing needs re-execution.
        assert killed.n_map_outputs_lost == 0
        assert killed.n_tasks_lost == 0

    def test_last_node_never_killed(self):
        cluster = SimulatedCluster(1)
        stats = cluster.simulate_phase(
            [PhaseTask(2.0)], phase="map", node_failures=[(0, 0.5)]
        )
        assert stats.n_node_failures == 0

    def test_speculation_races_stragglers(self):
        cluster = SimulatedCluster(2)
        tasks = [PhaseTask(4.0) for _ in range(8)] + [PhaseTask(4.0, slowdown=10.0)]
        slow = cluster.simulate_phase(tasks, phase="map", speculation=None)
        raced = cluster.simulate_phase(
            tasks, phase="map", speculation=SpeculationConfig(lag_threshold=1.5)
        )
        assert raced.speculative_launched >= 1
        assert raced.speculative_won >= 1
        assert raced.makespan < slow.makespan
        assert raced.wasted_cost > 0  # the killed original still burned a slot

    def test_speculation_skipped_on_single_node(self):
        cluster = SimulatedCluster(1)
        tasks = [PhaseTask(1.0), PhaseTask(1.0, slowdown=20.0)]
        stats = cluster.simulate_phase(
            tasks, phase="map", speculation=SpeculationConfig(lag_threshold=1.5)
        )
        assert stats.speculative_launched == 0


class TestNodeFailurePolicy:
    def test_deterministic_draws(self):
        policy = NodeFailurePolicy(rate=0.5, seed=11)
        a, b = policy.make_oracle(), policy.make_oracle()
        for phase in range(5):
            assert a(phase, 8) == b(phase, 8)

    def test_explicit_kill_schedule(self):
        policy = NodeFailurePolicy(kills=((0, 1, 0.5), (2, 0, 0.25)))
        draw = policy.make_oracle()
        assert draw(0, 4) == [(1, 0.5)]
        assert draw(1, 4) == []
        assert draw(2, 4) == [(0, 0.25)]

    def test_min_survivors_trims_draws(self):
        policy = NodeFailurePolicy(rate=0.99, min_survivors=3, seed=0)
        draw = policy.make_oracle()
        assert len(draw(0, 4)) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeFailurePolicy(rate=1.0)
        with pytest.raises(ValueError):
            NodeFailurePolicy(min_survivors=0)
        with pytest.raises(ValueError):
            NodeFailurePolicy(kills=((0, 1),))


class TestStragglerPolicy:
    def test_zero_rate_draws_unity(self):
        draw = StragglerPolicy().make_oracle()
        assert all(draw() == 1.0 for _ in range(20))

    def test_slowdowns_in_range(self):
        draw = StragglerPolicy(rate=0.9, slowdown=(2.0, 6.0), seed=1).make_oracle()
        factors = [draw() for _ in range(200)]
        slowed = [f for f in factors if f > 1.0]
        assert slowed and all(2.0 <= f <= 6.0 for f in slowed)

    def test_validation(self):
        with pytest.raises(ValueError):
            StragglerPolicy(rate=1.0)
        with pytest.raises(ValueError):
            StragglerPolicy(slowdown=(0.5, 2.0))


class TestFaultyEngineNodeFailures:
    def test_output_unchanged_under_node_loss(self):
        plain = MapReduceEngine(SimulatedCluster(4)).run(wc_job(), SPLITS * 8)
        faulty = FaultyEngine(
            SimulatedCluster(4),
            node_policy=NodeFailurePolicy(kills=((0, 2, 0.5), (1, 0, 0.5))),
        ).run(wc_job(), SPLITS * 8)
        assert dict(plain.output) == dict(faulty.output)
        assert faulty.counters.value("faults", "node_failures") == 2
        assert faulty.makespan > plain.makespan

    def test_output_unchanged_under_stragglers_with_speculation(self):
        plain = MapReduceEngine(SimulatedCluster(4)).run(wc_job(), SPLITS * 8)
        faulty = FaultyEngine(
            SimulatedCluster(4),
            straggler_policy=StragglerPolicy(rate=0.4, slowdown=(4.0, 8.0), seed=2),
        ).run(wc_job(), SPLITS * 8)
        assert dict(plain.output) == dict(faulty.output)
        assert faulty.counters.value("faults", "speculative_launched") >= faulty.counters.value(
            "faults", "speculative_won"
        )

    def test_speculation_bounds_straggler_makespan(self):
        job = JobSpec(name="wc", mapper=wc_mapper, reducer=wc_reducer,
                      map_cost=lambda k, v: 10.0)
        policy = dict(rate=0.3, slowdown=(6.0, 10.0), seed=4)
        raced = FaultyEngine(
            SimulatedCluster(4), straggler_policy=StragglerPolicy(**policy)
        ).run(job, SPLITS * 8)
        unraced = FaultyEngine(
            SimulatedCluster(4), straggler_policy=StragglerPolicy(speculation=False, **policy)
        ).run(job, SPLITS * 8)
        assert raced.counters.value("faults", "speculative_won") > 0
        assert raced.makespan < unraced.makespan

    def test_all_fault_modes_compose(self):
        plain = MapReduceEngine(SimulatedCluster(4)).run(wc_job(), SPLITS * 8)
        faulty = FaultyEngine(
            SimulatedCluster(4),
            policy=FaultPolicy(failure_rate=0.2, max_attempts=12, seed=1),
            node_policy=NodeFailurePolicy(rate=0.3, seed=2),
            straggler_policy=StragglerPolicy(rate=0.3, seed=3),
        ).run(wc_job(), SPLITS * 8)
        assert dict(plain.output) == dict(faulty.output)
        for group in ("map", "shuffle", "reduce", "job"):
            assert faulty.counters.group(group) == plain.counters.group(group)
