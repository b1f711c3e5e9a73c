"""DASC's per-bucket process pool: worker resolution, bit-identity, fallback, scope."""

import dataclasses
import multiprocessing as mp
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.dasc as dasc_module
from repro.core import DASCConfig, StreamingDASC
from repro.core.config import N_JOBS_ENV
from repro.core.dasc import DASC
from repro.kernels.functions import GaussianKernel
from repro.observability import Tracer, use_tracer
from repro.spectral.bucket import solve_bucket as real_solve_bucket


def _resolve(n_jobs=None) -> int:
    return DASCConfig(n_jobs=n_jobs).resolve_n_jobs()


class TestWorkerResolution:
    def test_explicit_counts(self):
        assert _resolve(1) == 1
        assert _resolve(4) == 4
        assert _resolve(0) == 1
        assert _resolve(-1) == max(1, os.cpu_count() or 1)

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "3")
        assert _resolve() == 3
        monkeypatch.setenv(N_JOBS_ENV, "1")
        assert _resolve() == 1
        monkeypatch.setenv(N_JOBS_ENV, "-1")
        assert _resolve() == max(1, os.cpu_count() or 1)
        monkeypatch.delenv(N_JOBS_ENV)
        assert _resolve() == 1

    def test_env_garbage_means_serial(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "lots")
        assert _resolve() == 1

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "4")
        assert _resolve(2) == 2
        assert _resolve(1) == 1


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


def spy_on_pool(monkeypatch) -> list:
    """Count the pool's fan-outs (the number of tasks of each) and run them."""
    calls = []
    real = dasc_module._solve_on_pool

    def spy(X, kernel, options, tasks, n_workers):
        calls.append(len(tasks))
        return real(X, kernel, options, tasks, n_workers)

    monkeypatch.setattr(dasc_module, "_solve_on_pool", spy)
    return calls


def fallbacks(tracer) -> list:
    return [r for r in tracer.sink.records if r["name"] == "executor.fallback"]


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


_PARENT_CALLS = []


def _bucket_2_raises_in_worker(rows, kernel, k_i, seed=None, *, bucket_id=None, **kw):
    """Bucket 2 raises in a pool worker; a call made in the test process is recorded."""
    if mp.parent_process() is None:
        _PARENT_CALLS.append(bucket_id)
    elif bucket_id == 2:
        raise ValueError("bucket 2 exploded")
    return real_solve_bucket(rows, kernel, k_i, seed, bucket_id=bucket_id, **kw)


def _dies_in_worker(rows, kernel, k_i, seed=None, **kw):
    """Kills the pool worker it runs in; solves the bucket in the test process."""
    if mp.parent_process() is not None:
        os._exit(1)
    return real_solve_bucket(rows, kernel, k_i, seed, **kw)


class TestForkPool:
    """The pool a fit starts for its buckets: what it inherits, who runs it,
    and what happens when a task raises or a worker dies."""

    def test_unpicklable_kernel_fans_out(self, blobs_small, monkeypatch):
        """Workers inherit the kernel through the fork, so a kernel that
        does not pickle still reaches the pool, with serial's results."""
        X, _ = blobs_small
        kernel = GaussianKernel(0.5)
        kernel.hook = lambda: None
        with pytest.raises(Exception):
            pickle.dumps(kernel)
        serial = DASC(8, n_bits=6, seed=0, n_jobs=1, kernel=kernel).fit(X)
        calls = spy_on_pool(monkeypatch)
        pooled = DASC(8, n_bits=6, seed=0, n_jobs=2, kernel=kernel).fit(X)
        assert calls == [_solved(serial)] == [4]
        assert np.array_equal(pooled.labels_, serial.labels_)
        assert_same_clusterings(pooled.bucket_clusterings_, serial.bucket_clusterings_)

    def test_streaming_finalize_uses_the_pool(self, blobs_small, monkeypatch):
        """``StreamingDASC.finalize`` runs ``DASC.fit``'s per-bucket stage,
        so ``n_jobs`` reaches the stream."""

        def finalize(n_jobs):
            stream = StreamingDASC(8, config=DASCConfig(seed=0, n_bits=6, n_jobs=n_jobs))
            stream.calibrate(X)
            for chunk in np.array_split(X, 4):
                stream.partial_fit(chunk)
            return stream.finalize(), stream

        X, _ = blobs_small
        serial_labels, serial = finalize(1)
        calls = spy_on_pool(monkeypatch)
        pooled_labels, pooled = finalize(2)
        assert calls == [4]
        assert np.array_equal(pooled_labels, serial_labels)
        assert_same_clusterings(
            pooled._dasc.bucket_clusterings_, serial._dasc.bucket_clusterings_
        )

    def test_task_error_is_not_a_pool_failure(self, blobs_small, monkeypatch):
        """A bucket task that raises surfaces its own exception: nothing
        re-runs in the parent and no fallback is reported."""
        X, _ = blobs_small
        _PARENT_CALLS.clear()
        monkeypatch.setattr(dasc_module, "solve_bucket", _bucket_2_raises_in_worker)
        tracer = Tracer()
        with use_tracer(tracer), pytest.raises(ValueError, match="bucket 2 exploded"):
            DASC(8, n_bits=6, n_jobs=2).fit(X)
        assert _PARENT_CALLS == []
        assert fallbacks(tracer) == []

    def test_dead_worker_falls_back(self, blobs_small, monkeypatch):
        """A worker that dies breaks the pool: its buckets run in the
        parent, with serial's results, and one fallback is traced."""
        X, _ = blobs_small
        serial = DASC(8, n_bits=6, n_jobs=1).fit(X)
        monkeypatch.setattr(dasc_module, "solve_bucket", _dies_in_worker)
        tracer = Tracer()
        with use_tracer(tracer):
            pooled = DASC(8, n_bits=6, n_jobs=2).fit(X)
        assert np.array_equal(pooled.labels_, serial.labels_)
        assert_same_clusterings(pooled.bucket_clusterings_, serial.bucket_clusterings_)
        events = fallbacks(tracer)
        assert len(events) == 1
        assert "BrokenProcessPool" in events[0]["attributes"]["reason"]
        assert events[0]["attributes"]["n_tasks"] == 4

    @pytest.mark.parametrize(
        "failure, reason",
        [("no fork", "no fork start method"), ("fork fails", "OSError: fork refused")],
    )
    def test_pool_that_cannot_start_falls_back(self, blobs_small, monkeypatch, failure, reason):
        """Without the fork start method, or when the workers cannot be
        started, every bucket runs in the parent with serial's results, and
        one fallback is traced."""
        from concurrent.futures import ProcessPoolExecutor

        def refuse(self, fn, *args, **kwargs):
            raise OSError("fork refused")

        X, _ = blobs_small
        serial = DASC(8, n_bits=6, n_jobs=1).fit(X)
        if failure == "no fork":
            monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
        else:
            monkeypatch.setattr(ProcessPoolExecutor, "submit", refuse)
        tracer = Tracer()
        with use_tracer(tracer):
            pooled = DASC(8, n_bits=6, n_jobs=2).fit(X)
        assert np.array_equal(pooled.labels_, serial.labels_)
        assert_same_clusterings(pooled.bucket_clusterings_, serial.bucket_clusterings_)
        assert [e["attributes"] for e in fallbacks(tracer)] == [
            {"n_workers": 2, "n_tasks": 4, "reason": reason}
        ]


class TestNJobsScope:
    """``REPRO_N_JOBS`` means one thing: the per-bucket pool of ``DASC.fit``
    and ``StreamingDASC.finalize``. The MapReduce job flow runs its tasks
    in-process whatever it says."""

    def test_distributed_flow_never_reaches_the_pool(self, blobs_small, monkeypatch):
        from repro.dasc_mr import DistributedDASC

        X, _ = blobs_small

        def run():
            return DistributedDASC(
                6, n_nodes=4, config=DASCConfig(seed=0), split_size=64
            ).run(X)

        monkeypatch.delenv(N_JOBS_ENV, raising=False)
        unset = run()

        def refuse(*args):
            raise AssertionError("the job flow reached the per-bucket pool")

        monkeypatch.setenv(N_JOBS_ENV, "2")
        monkeypatch.setattr(dasc_module, "_solve_on_pool", refuse)
        pooled = run()
        assert np.array_equal(pooled.labels, unset.labels)
        assert pooled.counters == unset.counters
        assert pooled.makespan == unset.makespan
        assert pooled.stage_makespans == unset.stage_makespans

    def test_dasc_fit_still_uses_the_pool(self, blobs_small, monkeypatch):
        X, _ = blobs_small
        calls = spy_on_pool(monkeypatch)
        monkeypatch.setenv(N_JOBS_ENV, "2")
        est = DASC(8, n_bits=6, seed=0).fit(X)
        assert calls == [_solved(est)] == [4]


def test_setup_import_loads_no_pool_machinery():
    """The import the benchmark's ``setup_s`` times leaves the process-pool
    modules unloaded; only a pooled fit imports them."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys\n"
        "import repro.core, repro.metrics\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
