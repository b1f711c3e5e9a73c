"""Executor backends: worker resolution, determinism, fallback, shared memory."""

import dataclasses
import multiprocessing as mp
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.mapreduce import (
    ExecutorError,
    JobSpec,
    MapReduceEngine,
    ParallelExecutor,
    SerialExecutor,
    SharedArray,
    effective_n_jobs,
    resolve_executor,
)
from repro.mapreduce.executor import N_JOBS_ENV, is_picklable


def _double(x):
    return 2 * x


def _maybe_fail(x):
    if x == 3:
        raise ValueError("task 3 exploded")
    return x * x


_PARENT_CALLS = []


def _fifth_fails(x):
    """Payload 4 raises; a call made in the test process is recorded."""
    if mp.parent_process() is None:
        _PARENT_CALLS.append(x)
    if x == 4:
        raise ValueError("payload 4 exploded")
    return x


def _worker_dies(x):
    """Kills the worker process it runs in; returns ``x`` in the parent."""
    if mp.parent_process() is not None:
        os._exit(1)
    return x


# -- picklable job pieces (module-level on purpose) --------------------------


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


class TestWorkerResolution:
    def test_explicit_counts(self):
        assert effective_n_jobs(1) == 1
        assert effective_n_jobs(4) == 4
        assert effective_n_jobs(0) == 1
        assert effective_n_jobs(-1) == max(1, os.cpu_count() or 1)

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "3")
        assert effective_n_jobs(None) == 3
        assert not isinstance(resolve_executor(None), SerialExecutor)
        monkeypatch.setenv(N_JOBS_ENV, "1")
        assert isinstance(resolve_executor(None), SerialExecutor)
        monkeypatch.delenv(N_JOBS_ENV)
        assert effective_n_jobs(None) == 1

    def test_env_garbage_means_serial(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "lots")
        assert effective_n_jobs(None) == 1

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "4")
        assert effective_n_jobs(2) == 2

    def test_resolve_executor(self):
        assert isinstance(resolve_executor(1), SerialExecutor)
        ex = resolve_executor(2)
        assert isinstance(ex, ParallelExecutor)
        assert ex.n_workers == 2

    def test_is_picklable(self):
        assert is_picklable(picklable_job())
        assert not is_picklable(picklable_job(map_cost=lambda k, v: 1.0))


class TestSerialExecutor:
    def test_map_ordered(self):
        ex = SerialExecutor()
        assert ex.map_ordered(_double, [1, 2, 3]) == [2, 4, 6]
        assert ex.map_ordered(_double, []) == []
        assert not ex.parallel
        assert ex.describe() == "serial"


class TestParallelExecutor:
    def test_results_in_submission_order(self):
        ex = ParallelExecutor(2, fallback=False)
        assert ex.map_ordered(_double, list(range(20))) == [2 * i for i in range(20)]
        assert ex.parallel
        assert ex.describe() == "process-pool:2"

    def test_task_exception_propagates(self):
        ex = ParallelExecutor(2, fallback=False)
        with pytest.raises(ExecutorError):
            ex.map_ordered(_maybe_fail, [1, 2, 3, 4])

    def test_task_error_is_not_a_pool_failure(self):
        """A task that raises surfaces its own exception: nothing re-runs in
        the parent and no fallback is reported."""
        from repro.observability import Tracer, use_tracer

        _PARENT_CALLS.clear()
        tracer = Tracer()
        with use_tracer(tracer), pytest.raises(ValueError, match="payload 4 exploded"):
            ParallelExecutor(2).map_ordered(_fifth_fails, list(range(6)))
        assert _PARENT_CALLS == []
        assert not [r for r in tracer.sink.records if r["name"] == "executor.fallback"]

    def test_dead_worker_falls_back(self):
        """A worker that dies breaks the pool: the batch re-runs in the
        parent, the fallback is traced, and the next batch gets a new pool."""
        from repro.observability import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            assert ParallelExecutor(2).map_ordered(_worker_dies, [1, 2, 3]) == [1, 2, 3]
        events = [r for r in tracer.sink.records if r["name"] == "executor.fallback"]
        assert len(events) == 1
        assert "BrokenProcessPool" in events[0]["attributes"]["reason"]
        assert ParallelExecutor(2, fallback=False).map_ordered(_double, [1, 2]) == [2, 4]

    def test_unpicklable_payload_falls_back(self):
        ex = ParallelExecutor(2, fallback=True)
        payloads = [lambda: 1, lambda: 2]  # lambdas cannot cross the pool
        assert ex.map_ordered(_call_payload, payloads) == [1, 2]

    def test_unpicklable_payload_strict_raises(self):
        ex = ParallelExecutor(2, fallback=False)
        with pytest.raises(ExecutorError):
            ex.map_ordered(_call_payload, [lambda: 1])

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)


def _call_payload(fn):
    return fn()


class TestSharedArray:
    def test_roundtrip_and_handle_pickling(self):
        X = np.arange(24, dtype=np.float64).reshape(6, 4)
        with SharedArray.create(X) as shared:
            np.testing.assert_array_equal(shared.asarray(), X)
            handle = pickle.loads(pickle.dumps(shared))
            assert (handle.name, handle.shape, handle.dtype) == (
                shared.name, shared.shape, shared.dtype,
            )
            view = handle.asarray()
            np.testing.assert_array_equal(view, X)
            assert not view.flags.writeable  # non-owner views are read-only
            handle.close()

    def test_worker_reads_shared_segment(self):
        X = np.linspace(0.0, 1.0, 32).reshape(8, 4)
        ex = ParallelExecutor(2, fallback=False)
        with SharedArray.create(X) as shared:
            sums = ex.map_ordered(_shared_row_sum, [(shared, i) for i in range(8)])
        np.testing.assert_allclose(sums, X.sum(axis=1))

    @pytest.mark.skipif("fork" not in mp.get_all_start_methods(), reason="needs fork")
    def test_forked_attach_leaves_the_owners_registration(self):
        """A fork child reports to its parent's resource tracker, where the
        segment is registered once, by the owner. An attach that takes that
        entry back makes the owner's unlink fail inside the tracker
        (``KeyError: '/psm_...'`` on stderr)."""
        from multiprocessing import resource_tracker

        ctx = mp.get_context("fork")
        X = np.arange(6, dtype=np.float64).reshape(2, 3)
        with SharedArray.create(X) as shared:
            reader, writer = ctx.Pipe(duplex=False)

            def child():
                calls = []
                resource_tracker.unregister = lambda name, rtype: calls.append(name)
                handle = pickle.loads(pickle.dumps(shared))
                writer.send((handle.asarray().tolist(), calls))
                handle.close()

            proc = ctx.Process(target=child)
            proc.start()
            rows, calls = reader.recv()
            proc.join()
        assert rows == X.tolist()
        assert calls == []

    def test_attach_from_an_unrelated_process_keeps_the_segment(self):
        """A process with a tracker of its own takes the attach's
        registration back, so its exit does not unlink the owner's segment."""
        X = np.arange(12, dtype=np.float64).reshape(3, 4)
        src = Path(__file__).resolve().parent.parent / "src"
        with SharedArray.create(X) as shared:
            probe = (
                "from repro.mapreduce.executor import SharedArray\n"
                f"h = SharedArray({shared.name!r}, {shared.shape!r}, {shared.dtype!r})\n"
                "print(float(h.asarray().sum()))\n"
                "h.close()\n"
            )
            out = subprocess.run(
                [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                capture_output=True, text=True, check=True,
            )
            assert float(out.stdout) == X.sum()
            assert "leaked" not in out.stderr and "Traceback" not in out.stderr
            handle = pickle.loads(pickle.dumps(shared))
            np.testing.assert_array_equal(handle.asarray(), X)  # still linked
            handle.close()


def _shared_row_sum(payload):
    shared, row = payload
    value = float(shared.asarray()[row].sum())
    shared.close()
    return value


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


def assert_same_clusterings(got, want):
    """Every field of every bucket's clustering equal, arrays bit for bit."""
    assert len(got) == len(want)
    for b, (g, w) in enumerate(zip(got, want)):
        for field in dataclasses.fields(g):
            a, e = getattr(g, field.name), getattr(w, field.name)
            if isinstance(e, np.ndarray):
                np.testing.assert_array_equal(a, e, err_msg=f"bucket {b} {field.name}")
            else:
                assert a == e, (b, field.name)


def _solved(est) -> int:
    return sum(c.mode == "nystrom" for c in est.bucket_clusterings_)


class TestDASCParallel:
    def test_fit_bit_identical(self, blobs_small):
        """Four 100-point buckets, each solved in a worker."""
        from repro.core import DASCConfig
        from repro.core.dasc import DASC

        X, _ = blobs_small
        serial = DASC(8, config=DASCConfig(seed=0, n_bits=6)).fit(X)
        parallel = DASC(8, config=DASCConfig(seed=0, n_bits=6, n_jobs=2)).fit(X)
        assert _solved(serial) == 4
        assert np.array_equal(parallel.labels_, serial.labels_)
        assert parallel.n_clusters_ == serial.n_clusters_
        assert_same_clusterings(parallel.bucket_clusterings_, serial.bucket_clusterings_)

    def test_eigengap_allocation_bit_identical(self, blobs_small):
        from repro.core import DASCConfig
        from repro.core.dasc import DASC

        X, _ = blobs_small
        serial = DASC(6, config=DASCConfig(seed=0, allocation="eigengap")).fit(X)
        parallel = DASC(6, config=DASCConfig(seed=0, allocation="eigengap", n_jobs=2)).fit(X)
        assert _solved(serial) == 2
        assert np.array_equal(parallel.labels_, serial.labels_)
        np.testing.assert_array_equal(
            parallel.cluster_allocation_, serial.cluster_allocation_
        )
        assert_same_clusterings(parallel.bucket_clusterings_, serial.bucket_clusterings_)


class TestNJobsScope:
    """``REPRO_N_JOBS`` means one thing: ``DASC.fit``'s per-bucket pool.
    The MapReduce job flow runs its tasks in-process whatever it says."""

    def test_distributed_flow_never_reaches_the_pool(self, blobs_small, monkeypatch):
        from repro.core import DASCConfig
        from repro.dasc_mr import DistributedDASC

        X, _ = blobs_small

        def run():
            return DistributedDASC(
                6, n_nodes=4, config=DASCConfig(seed=0), split_size=64
            ).run(X)

        monkeypatch.delenv(N_JOBS_ENV, raising=False)
        unset = run()

        def refuse(self, fn, payloads):
            raise AssertionError("the job flow reached ParallelExecutor.map_ordered")

        monkeypatch.setenv(N_JOBS_ENV, "2")
        monkeypatch.setattr(ParallelExecutor, "map_ordered", refuse)
        pooled = run()
        assert np.array_equal(pooled.labels, unset.labels)
        assert pooled.counters == unset.counters
        assert pooled.makespan == unset.makespan
        assert pooled.stage_makespans == unset.stage_makespans

    def test_dasc_fit_still_uses_the_pool(self, blobs_small, monkeypatch):
        from repro.core.dasc import DASC

        X, _ = blobs_small
        calls = []
        real = ParallelExecutor.map_ordered

        def spy(self, fn, payloads):
            calls.append(len(payloads))
            return real(self, fn, payloads)

        monkeypatch.setenv(N_JOBS_ENV, "2")
        monkeypatch.setattr(ParallelExecutor, "map_ordered", spy)
        est = DASC(8, n_bits=6, seed=0).fit(X)
        assert calls == [_solved(est)] == [4]
