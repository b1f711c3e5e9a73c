"""Tests for data-locality-aware scheduling."""

import numpy as np
import pytest

from repro.mapreduce import (
    JobSpec,
    MapReduceEngine,
    NodeConfig,
    PhaseTask,
    SimulatedCluster,
    SimulatedHDFS,
)


class TestScheduleWithLocality:
    def test_all_local_when_capacity_allows(self):
        cluster = SimulatedCluster(4, node=NodeConfig(map_slots=2, reduce_slots=1))
        # 2 tasks per node, 2 slots each.
        tasks = [PhaseTask(1.0, preferred_nodes=(n,)) for n in range(4)] * 2
        stats = cluster.simulate_phase(tasks)
        assert stats.locality_rate == 1.0
        assert stats.makespan == pytest.approx(1.0)

    def test_remote_penalty_charged(self):
        cluster = SimulatedCluster(2, node=NodeConfig(map_slots=1, reduce_slots=1))
        # 3 tasks all prefer node 0, which has a single slot: at least one
        # must run remotely and pay the penalty.
        tasks = [PhaseTask(1.0, preferred_nodes=(0,))] * 3
        stats = cluster.simulate_phase(tasks)
        assert stats.locality_rate < 1.0
        assert stats.total_cost > 3.0  # includes at least one 1.25 remote run

    def test_unconstrained_tasks_count_local(self):
        cluster = SimulatedCluster(2)
        stats = cluster.simulate_phase([PhaseTask(1.0), PhaseTask(2.0)])
        assert stats.locality_rate == 1.0

    def test_remote_chosen_when_queueing_is_worse(self):
        cluster = SimulatedCluster(2, node=NodeConfig(map_slots=1, reduce_slots=1))
        # First task loads node 0's only slot; the second also prefers node
        # 0 but queueing there finishes at 2.0 while running remotely
        # finishes at 1.25 — the scheduler must pick remote and pay the
        # penalty.
        stats = cluster.simulate_phase([PhaseTask(1.0, preferred_nodes=(0,))] * 2)
        assert stats.n_local_tasks == 1
        assert stats.total_cost == pytest.approx(2.25)
        assert stats.makespan == pytest.approx(1.25)

    def test_local_chosen_when_queueing_is_cheaper(self):
        cluster = SimulatedCluster(2, node=NodeConfig(map_slots=1, reduce_slots=1))
        # Node 0 ends up 0.2 behind node 1 (1.2 against 1.0), less than the
        # 0.25 a remote run of the last task adds: it queues locally and
        # finishes at 2.2 rather than at 2.25 on node 1.
        stats = cluster.simulate_phase(
            [
                PhaseTask(1.2, preferred_nodes=(0,)),
                PhaseTask(1.0, preferred_nodes=(1,)),
                PhaseTask(1.0, preferred_nodes=(0,)),
            ]
        )
        assert stats.n_local_tasks == 3
        assert stats.assigned_nodes == [0, 1, 0]
        assert stats.makespan == pytest.approx(2.2)

    def test_makespan_lower_bound_holds(self):
        cluster = SimulatedCluster(2)
        rng = np.random.default_rng(0)
        tasks = [
            PhaseTask(float(c), preferred_nodes=(int(rng.integers(2)),))
            for c in rng.uniform(0.5, 3.0, 40)
        ]
        stats = cluster.simulate_phase(tasks)
        assert stats.makespan >= max(t.cost for t in tasks)
        assert stats.makespan >= sum(t.cost for t in tasks) / cluster.map_slots

    def test_validation(self):
        cluster = SimulatedCluster(1)
        with pytest.raises(ValueError):
            cluster.simulate_phase([PhaseTask(1.0)], phase="wash")
        with pytest.raises(ValueError):
            cluster.simulate_phase([PhaseTask(-1.0)])


class TestEngineIntegration:
    def test_hdfs_splits_schedule_locally(self):
        fs = SimulatedHDFS(4, replication=2, default_split_size=2)
        fs.write("in", [(i, f"w{i}") for i in range(16)])
        engine = MapReduceEngine(SimulatedCluster(4))
        job = JobSpec(name="ident", mapper=lambda k, v, c: [(k, v)])
        result = engine.run(job, fs.splits("in"))
        # Placement info flowed through: locality tracked and high.
        assert result.map_stats.n_tasks == 8
        assert result.map_stats.locality_rate > 0.5

    def test_plain_lists_still_work(self):
        engine = MapReduceEngine(SimulatedCluster(2))
        job = JobSpec(name="ident", mapper=lambda k, v, c: [(k, v)])
        result = engine.run(job, [[(0, "a")], [(1, "b")]])
        assert result.map_stats.locality_rate == 1.0
