"""Tests for the MapReduce substrate: engine, HDFS, cluster, job flows, EMR."""

import numpy as np
import pytest

from repro.mapreduce import (
    Counters,
    ElasticMapReduce,
    JobFlow,
    JobSpec,
    MapReduceEngine,
    NodeConfig,
    PhaseTask,
    S3Store,
    SimulatedCluster,
    SimulatedHDFS,
    TABLE2_DEFAULTS,
)
from repro.mapreduce.engine import approx_bytes


# -- word count: the canonical end-to-end job --------------------------------

def wc_mapper(key, value, ctx):
    for word in value.split():
        yield (word, 1)


def wc_reducer(key, values, ctx):
    yield (key, sum(values))


def make_wc_job(**kwargs):
    return JobSpec(name="wordcount", mapper=wc_mapper, reducer=wc_reducer, **kwargs)


class TestEngine:
    def test_wordcount(self):
        engine = MapReduceEngine()
        splits = [[(0, "a b a")], [(1, "b c")]]
        result = engine.run(make_wc_job(), splits)
        assert dict(result.output) == {"a": 2, "b": 2, "c": 1}

    def test_map_only_job(self):
        job = JobSpec(name="ident", mapper=lambda k, v, c: [(k, v * 2)])
        result = MapReduceEngine().run(job, [[(1, 10), (2, 20)]])
        assert sorted(result.output) == [(1, 20), (2, 40)]
        assert result.reduce_stats.n_tasks == 0

    def test_partitioner_routes_keys(self):
        job = make_wc_job(n_reducers=2, partitioner=lambda key, n: 0 if key < "m" else 1)
        result = MapReduceEngine().run(job, [[(0, "apple zebra apple")]])
        assert dict(result.partitions[0]) == {"apple": 2}
        assert dict(result.partitions[1]) == {"zebra": 1}

    def test_bad_partitioner_rejected(self):
        job = make_wc_job(n_reducers=2, partitioner=lambda key, n: 5)
        with pytest.raises(ValueError):
            MapReduceEngine().run(job, [[(0, "x")]])

    def test_keys_sorted_within_partition(self):
        job = make_wc_job()
        result = MapReduceEngine().run(job, [[(0, "c a b")]])
        assert [k for k, _ in result.output] == ["a", "b", "c"]

    def test_counters_track_records(self):
        result = MapReduceEngine().run(make_wc_job(), [[(0, "x y")], [(1, "z")]])
        assert result.counters.value("map", "input_records") == 2
        assert result.counters.value("map", "output_records") == 3
        assert result.counters.value("job", "map_tasks") == 2

    def test_cost_models_drive_stats(self):
        job = make_wc_job(
            map_cost=lambda k, v: 10.0,
            reduce_cost=lambda k, vs: 100.0,
        )
        result = MapReduceEngine().run(job, [[(0, "a")], [(1, "b")]])
        assert result.map_stats.total_cost == 20.0
        assert result.reduce_stats.total_cost == 200.0

    def test_context_counter_from_mapper(self):
        def mapper(k, v, ctx):
            ctx.increment("custom", "seen")
            yield (k, v)

        job = JobSpec(name="j", mapper=mapper, reducer=wc_reducer)
        result = MapReduceEngine().run(job, [[(0, 1), (1, 2)]])
        assert result.counters.value("custom", "seen") == 2


class TestCounters:
    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment("g", "n", 2)
        b.increment("g", "n", 3)
        b.increment("g", "m")
        a.merge(b)
        assert a.value("g", "n") == 5 and a.value("g", "m") == 1

    def test_missing_is_zero(self):
        assert Counters().value("no", "pe") == 0

    def test_group_snapshot(self):
        c = Counters()
        c.increment("g", "x")
        assert c.group("g") == {"x": 1}


class TestHDFS:
    def test_write_read_roundtrip(self):
        fs = SimulatedHDFS(4)
        fs.write("f", list(range(10)), split_size=3)
        assert fs.read("f") == list(range(10))

    def test_split_boundaries(self):
        fs = SimulatedHDFS(2)
        fs.write("f", list(range(10)), split_size=4)
        splits = fs.splits("f")
        assert [len(s) for s in splits] == [4, 4, 2]
        assert splits[1].records == (4, 5, 6, 7)

    def test_replication_places_distinct_nodes(self):
        fs = SimulatedHDFS(5, replication=3)
        fs.write("f", list(range(20)), split_size=5)
        for s in range(4):
            nodes = fs.locations("f", s)
            assert len(set(nodes)) == 3

    def test_replication_clipped_to_nodes(self):
        fs = SimulatedHDFS(2, replication=3)
        fs.write("f", [1], split_size=1)
        assert len(fs.locations("f", 0)) == 2

    def test_immutability(self):
        fs = SimulatedHDFS(1)
        fs.write("f", [1])
        with pytest.raises(FileExistsError):
            fs.write("f", [2])

    def test_delete_and_exists(self):
        fs = SimulatedHDFS(1)
        fs.write("f", [1])
        assert fs.exists("f")
        fs.delete("f")
        assert not fs.exists("f")

    def test_empty_file_has_one_split(self):
        fs = SimulatedHDFS(1)
        fs.write("f", [])
        assert len(fs.splits("f")) == 1


class TestSimulatedCluster:
    def test_table2_defaults(self):
        assert TABLE2_DEFAULTS.map_slots == 4
        assert TABLE2_DEFAULTS.reduce_slots == 2
        assert TABLE2_DEFAULTS.replication == 3
        assert TABLE2_DEFAULTS.jobtracker_heap_mb == 768
        assert TABLE2_DEFAULTS.namenode_heap_mb == 256
        assert TABLE2_DEFAULTS.tasktracker_heap_mb == 512
        assert TABLE2_DEFAULTS.datanode_heap_mb == 256

    def test_slot_totals(self):
        cluster = SimulatedCluster(16)
        assert cluster.map_slots == 64 and cluster.reduce_slots == 32

    def test_makespan_lower_bounds(self):
        cluster = SimulatedCluster(2)  # 4 reduce slots
        costs = [5.0, 3.0, 3.0, 3.0, 2.0, 2.0]
        stats = cluster.simulate_phase([PhaseTask(c) for c in costs], phase="reduce")
        assert stats.makespan >= max(costs)
        assert stats.makespan >= sum(costs) / cluster.reduce_slots
        # LPT is within 4/3 of the optimum, which is itself >= both bounds.
        assert stats.makespan <= (4 / 3) * max(max(costs), sum(costs) / 4) + max(costs)

    def test_makespan_halves_with_doubled_nodes(self):
        tasks = [PhaseTask(1.0)] * 512
        small = SimulatedCluster(8).simulate_phase(tasks, phase="reduce").makespan
        big = SimulatedCluster(16).simulate_phase(tasks, phase="reduce").makespan
        assert big == pytest.approx(small / 2)

    def test_single_huge_task_does_not_scale(self):
        tasks = [PhaseTask(100.0)]
        a = SimulatedCluster(1).simulate_phase(tasks).makespan
        b = SimulatedCluster(64).simulate_phase(tasks).makespan
        assert a == b == 100.0

    def test_empty_schedule(self):
        stats = SimulatedCluster(2).simulate_phase([])
        assert stats.makespan == 0.0 and stats.n_tasks == 0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            SimulatedCluster(1).simulate_phase([PhaseTask(-1.0)])

    def test_utilization_bounds(self):
        stats = SimulatedCluster(2).simulate_phase([PhaseTask(1.0)] * 100)
        assert 0.0 < stats.utilization <= 1.0


class TestJobFlowAndEMR:
    def test_flow_chains_jobs_through_fs(self):
        fs = SimulatedHDFS(2)
        fs.write("in", [(0, "a b"), (1, "a")], split_size=1)
        flow = JobFlow(engine=MapReduceEngine(SimulatedCluster(2)), fs=fs)
        flow.add_job(make_wc_job(), "in", "mid")
        # Second job: uppercase the words from the first job's output.
        job2 = JobSpec(name="upper", mapper=lambda k, v, c: [(k.upper(), v)])
        flow.add_job(job2, "mid", "out")
        flow.run()
        assert dict(fs.read("out")) == {"A": 2, "B": 1}
        assert flow.makespan > 0

    def test_action_steps_interleave(self):
        fs = SimulatedHDFS(1)
        fs.write("in", [(0, "x")])
        flow = JobFlow(engine=MapReduceEngine(), fs=fs)
        seen = []
        flow.add_action("probe", lambda fl: seen.append(fl.fs.exists("in")))
        flow.run()
        assert seen == [True]

    def test_s3_store(self):
        s3 = S3Store()
        s3.put("a/b", [1, 2])
        assert s3.get("a/b") == [1, 2]
        assert s3.list_keys("a/") == ["a/b"]
        s3.put("a/b", [3])  # overwrite allowed
        assert s3.get("a/b") == [3]
        s3.delete("a/b")
        assert not s3.exists("a/b")

    def test_emr_lifecycle(self):
        emr = ElasticMapReduce()
        flow_id, flow = emr.create_job_flow(4)
        flow.fs.write("in", [(0, "hello world")])
        flow.add_job(make_wc_job(), "in", "out")
        emr.run_job_flow(flow_id)
        status = emr.flow_status(flow_id)
        assert status["n_nodes"] == 4 and status["completed_steps"] == 1
        emr.terminate(flow_id)
        with pytest.raises(RuntimeError):
            emr.run_job_flow(flow_id)

    def test_emr_unknown_flow(self):
        with pytest.raises(KeyError):
            ElasticMapReduce().flow_status("j-nope")

    def test_node_config_validation(self):
        with pytest.raises(ValueError):
            NodeConfig(map_slots=0)


class TestEngineProperties:
    """Property tests: the engine agrees with a direct reference computation."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    words = st.lists(
        st.text(alphabet="abc", min_size=1, max_size=3), min_size=0, max_size=30
    )

    @given(words, st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_wordcount_matches_counter(self, words, split_size, n_reducers):
        from collections import Counter

        records = [(i, w) for i, w in enumerate(words)]
        splits = [records[i : i + split_size] for i in range(0, len(records), split_size)] or [[]]
        job = make_wc_job(n_reducers=n_reducers)
        result = MapReduceEngine().run(job, splits)
        assert dict(result.output) == dict(Counter(words))


class TestApproxBytesDict:
    def test_dict_charges_per_slot_overhead(self):
        # Two pointer words per entry, consistent with list/tuple's one word
        # per slot, plus the recursive content estimate.
        assert approx_bytes({}) == 0
        assert approx_bytes({1: 2}) == 16 + 8 + 8
        assert approx_bytes({"ab": [1, 2]}) == 16 + 2 + (8 * 2 + 16)

    def test_dict_consistent_with_item_tuples(self):
        d = {1: 2.0, 3: 4.0}
        items = list(d.items())
        assert approx_bytes(d) == approx_bytes(items) - 8 * len(items)


# -- an engine task that fails, and its phase times --------------------------


def _square_mapper(key, value, ctx):
    ctx.increment("test", "mapped")
    yield (int(value) % 3, int(value) ** 2)


def _sum_reducer(key, values, ctx):
    ctx.increment("test", "reduced")
    yield (key, sum(values))


def _failing_mapper(key, value, ctx):
    ctx.increment("test", "attempted")
    if int(value) == 7:
        raise RuntimeError("record 7 is cursed")
    yield (0, int(value))


def picklable_job(**kw):
    return JobSpec(name="sq", mapper=_square_mapper, reducer=_sum_reducer, n_reducers=3, **kw)


class TestEngineParallelSemantics:
    """The engine's state when a task fails, and its measured phase times."""

    def _splits(self, n_records=40, per_split=8):
        return [
            [(i, i) for i in range(s, min(s + per_split, n_records))]
            for s in range(0, n_records, per_split)
        ]

    def test_map_error_carries_partial_counters(self):
        job = JobSpec(name="boom", mapper=_failing_mapper, reducer=_sum_reducer)
        splits = [[(0, 1), (1, 2)], [(2, 7)], [(3, 4)]]
        with pytest.raises(RuntimeError, match="cursed") as excinfo:
            MapReduceEngine().run(job, splits)
        # The finished task's counters plus the failing task's partial
        # increments; nothing of the task that never ran.
        assert excinfo.value.counters.as_dict() == {
            "test": {"attempted": 3},
            "map": {"input_records": 2, "output_records": 2},
        }

    def test_real_elapsed_recorded(self):
        result = MapReduceEngine().run(picklable_job(), self._splits())
        assert result.map_stats.real_elapsed > 0.0
        assert result.reduce_stats.real_elapsed > 0.0
