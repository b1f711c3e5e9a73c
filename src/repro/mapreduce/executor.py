"""Execution backends: run independent tasks serially or on real cores.

The simulated cluster models *scheduling*; this module supplies real-core
*compute* parallelism where it measurably pays: ``DASC.fit``'s per-bucket
kernel + spectral solves, which are independent by construction (Section
4's decomposition). A task here is one pure function call over one
picklable payload. The MapReduce engine does not use it: its tasks run
in-process, and the simulated cluster alone decides their makespan.

Two backends share one interface:

* :class:`SerialExecutor` — in-process, in-order execution. The default.
* :class:`ParallelExecutor` — a shared :class:`concurrent.futures.
  ProcessPoolExecutor` (``fork`` start method where available, so workers
  inherit the loaded modules). Results are collected **in submission
  order**, which is what makes the parallel backend bit-identical to the
  serial one.

Determinism and robustness contract:

* ``map_ordered(fn, payloads)`` returns ``[fn(p) for p in payloads]`` — the
  backend only changes *where* the calls run, never the results or their
  order. Tasks must be pure functions of their payloads.
* A task that raises surfaces its own exception, as a serial run would.
* If the pool cannot start, a worker dies mid-task (``BrokenProcessPool``),
  or a payload refuses to pickle, the executor falls back to executing the
  payloads serially in-process — the same degradation idea as the fault
  machinery's task re-execution: tasks are deterministic, so re-running
  them is always safe. The fallback is reported as an
  ``executor.fallback`` trace event.

:class:`SharedArray` broadcasts a large read-only ``numpy`` array (the
dataset) to workers through POSIX shared memory, so per-bucket tasks ship
only their index arrays instead of copying the data once per task.

Worker-count resolution honors the ``REPRO_N_JOBS`` environment variable:
``resolve_executor(None)`` is serial unless ``REPRO_N_JOBS`` is set to a
value greater than 1 — which is how the CI matrix leg puts every
``DASC.fit`` in the test suite on the parallel backend without touching
any call site.
"""

from __future__ import annotations

import atexit
import os
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.observability import get_logger, get_tracer

__all__ = [
    "N_JOBS_ENV",
    "ExecutorError",
    "SerialExecutor",
    "ParallelExecutor",
    "SharedArray",
    "effective_n_jobs",
    "resolve_executor",
    "is_picklable",
]

#: Environment variable selecting the default worker count (0/1/unset = serial).
N_JOBS_ENV = "REPRO_N_JOBS"

logger = get_logger("mapreduce.executor")


class ExecutorError(RuntimeError):
    """Parallel execution failed and serial fallback was disabled."""


def is_picklable(obj) -> bool:
    """Whether ``obj`` survives pickling (the bar for crossing a process).

    Objects built from module-level callables pass; ad-hoc closures and
    lambdas fail, in which case ``DASC.fit`` keeps its buckets in-process.
    """
    try:
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return True
    except Exception:
        return False


def effective_n_jobs(n_jobs: int | None = None) -> int:
    """Resolve a worker count: explicit value > ``REPRO_N_JOBS`` > serial.

    ``-1`` (or any negative value) means "all visible cores". ``None`` defers
    to the environment; ``0`` is treated as 1 (serial).
    """
    if n_jobs is None:
        raw = os.environ.get(N_JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError:
            logger.warning("ignoring non-integer %s=%r", N_JOBS_ENV, raw)
            return 1
    if n_jobs < 0:
        return max(1, os.cpu_count() or 1)
    return max(1, int(n_jobs))


class SerialExecutor:
    """In-process, in-order execution."""

    parallel = False
    n_workers = 1

    def map_ordered(self, fn, payloads: list) -> list:
        """``[fn(p) for p in payloads]``, literally."""
        return [fn(p) for p in payloads]

    def describe(self) -> str:
        """Short label for traces and reports."""
        return "serial"

    def close(self) -> None:
        """Nothing to release."""

    def __repr__(self) -> str:
        return "SerialExecutor()"


# -- shared process pools ----------------------------------------------------
#
# Pools are expensive to start and cheap to keep; estimators are constructed
# freely all over the test suite, so executors share one pool per worker
# count for the life of the process.

_SHARED_POOLS: dict[int, ProcessPoolExecutor] = {}

# A fork child inherits this registry, but the pool objects in it belong to
# the parent (their manager threads don't exist in the child, and their locks
# may have been captured mid-acquire). A child touching them at its own exit
# deadlocks — and a hung worker then hangs the parent's shutdown join. Drop
# the inherited entries the moment a child is born.
os.register_at_fork(after_in_child=_SHARED_POOLS.clear)


# The pid of the resource tracker a fork child inherited from its parent, if
# any (SharedArray.asarray must not unregister with a shared tracker).
_INHERITED_TRACKER_PID = None


def _note_inherited_tracker() -> None:
    global _INHERITED_TRACKER_PID
    module = sys.modules.get("multiprocessing.resource_tracker")
    _INHERITED_TRACKER_PID = getattr(getattr(module, "_resource_tracker", None), "_pid", None)


os.register_at_fork(after_in_child=_note_inherited_tracker)


def _owns_resource_tracker() -> bool:
    """Whether this process launched the resource tracker it reports to.

    A fork child inherits its parent's tracker pid (noted at fork); a spawn
    child inherits only the tracker's pipe, so it holds no pid at all.
    """
    from multiprocessing import resource_tracker

    pid = getattr(resource_tracker._resource_tracker, "_pid", None)
    return pid is not None and pid != _INHERITED_TRACKER_PID


def _make_pool(n_workers: int) -> ProcessPoolExecutor:
    import multiprocessing as mp

    if "fork" in mp.get_all_start_methods():
        # Workers inherit loaded modules and module state; task dispatch
        # still pickles payloads, but startup is milliseconds, not seconds.
        return ProcessPoolExecutor(n_workers, mp_context=mp.get_context("fork"))
    return ProcessPoolExecutor(n_workers)


def _get_shared_pool(n_workers: int) -> ProcessPoolExecutor:
    pool = _SHARED_POOLS.get(n_workers)
    if pool is None:
        pool = _make_pool(n_workers)
        _SHARED_POOLS[n_workers] = pool
    return pool


def _discard_shared_pool(n_workers: int) -> None:
    # wait=True so the pool's manager thread is fully joined here: leaving
    # half-shut pools behind races concurrent.futures' own interpreter-exit
    # hook, whose manager-thread join can miss its wakeup and deadlock.
    pool = _SHARED_POOLS.pop(n_workers, None)
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def _shutdown_shared_pools() -> None:
    import multiprocessing as mp

    if mp.parent_process() is not None:
        # Never run in a worker: any pool visible here was inherited (e.g.
        # a pool created after this child forked) and is not ours to stop.
        return
    for n in list(_SHARED_POOLS):
        _discard_shared_pool(n)


try:
    # Pools must die before concurrent.futures' _python_exit runs: that hook
    # fires during threading._shutdown — *before* regular atexit callbacks —
    # and joining a still-live manager thread there can deadlock. Threading
    # atexits run in reverse registration order, so registering after the
    # ProcessPoolExecutor import above puts this cleanup ahead of it.
    import threading as _threading

    _threading._register_atexit(_shutdown_shared_pools)
except Exception:  # pragma: no cover - future interpreters without the hook
    atexit.register(_shutdown_shared_pools)


def _run_pickled(blob: bytes):
    """Worker entry point: unpickle ``(fn, payload)`` and run it.

    Tasks are shipped pre-pickled so serialization errors surface in the
    submitting thread, inside our own try/except — an unpicklable object
    handed directly to ``pool.submit`` is serialized later, in the pool's
    internal queue-feeder thread, whose error path can wedge the pool's
    manager thread permanently (a CPython race seen on 3.11: the manager
    misses its shutdown wakeup and every later ``shutdown()`` — including
    the interpreter's own exit hook — deadlocks joining it).
    """
    fn, payload = pickle.loads(blob)
    return fn(payload)


def _null_child_tracer() -> None:
    """Disable tracing inside a worker process.

    A forked worker inherits the parent's tracer — including an open trace
    file descriptor. Two processes appending spans to one stream would
    interleave garbage, so workers run silent; only their results (and
    stage times) come back to the parent.

    No-op outside a child process: the serial fallback runs worker entry
    points in the parent, whose tracer must survive.
    """
    import multiprocessing as mp

    if mp.parent_process() is None:
        return
    from repro.observability import set_tracer

    set_tracer(None)


class ParallelExecutor:
    """Process-pool execution with deterministic, in-order collection.

    Parameters
    ----------
    n_workers:
        Worker processes (``None``: ``REPRO_N_JOBS`` or all cores; negative:
        all cores).
    fallback:
        Re-run the payloads serially when the pool breaks or payloads don't
        pickle (default). With ``fallback=False`` those conditions, and a
        task that raises, raise :class:`ExecutorError` instead (used by
        tests).
    """

    parallel = True

    def __init__(self, n_workers: int | None = None, *, fallback: bool = True):
        if n_workers is None:
            raw = os.environ.get(N_JOBS_ENV, "").strip()
            n_workers = effective_n_jobs(int(raw) if raw.lstrip("-").isdigit() else -1)
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.fallback = bool(fallback)

    def map_ordered(self, fn, payloads: list) -> list:
        """Run ``fn`` over ``payloads`` on the pool; results in input order.

        A task that raises surfaces its own exception, as it would
        serially, and nothing is re-run. Only pool failures — a payload
        that does not pickle, a pool that cannot start, a worker that dies
        — re-run the whole batch in-process.
        """
        if not payloads:
            return []
        try:
            # Serialize up front (see _run_pickled): a payload that cannot
            # pickle raises *here*, before the pool is involved at all.
            blobs = [
                pickle.dumps((fn, p), protocol=pickle.HIGHEST_PROTOCOL) for p in payloads
            ]
            pool = _get_shared_pool(self.n_workers)
            futures = [pool.submit(_run_pickled, b) for b in blobs]
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            return self._fall_back(fn, payloads, exc)
        results = []
        for future in futures:
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                return self._fall_back(fn, payloads, exc)
            except Exception as exc:
                # The task itself raised; the pool stays healthy.
                for pending in futures:
                    pending.cancel()
                if not self.fallback:
                    raise ExecutorError(
                        f"parallel task failed ({type(exc).__name__}: {exc})"
                    ) from exc
                raise
        return results

    def _fall_back(self, fn, payloads: list, exc: Exception) -> list:
        """Run the batch in-process after a pool failure (or raise when
        ``fallback=False``); the fallback is logged and traced."""
        if isinstance(exc, BrokenProcessPool):
            # The workers are gone: tear the pool down (the next use starts
            # a fresh one). Any other failure leaves it healthy.
            _discard_shared_pool(self.n_workers)
        if not self.fallback:
            raise ExecutorError(
                f"parallel execution failed ({type(exc).__name__}: {exc})"
            ) from exc
        logger.warning(
            "parallel backend failed (%s: %s); falling back to serial",
            type(exc).__name__, exc,
        )
        get_tracer().event(
            "executor.fallback",
            n_workers=self.n_workers,
            n_tasks=len(payloads),
            reason=f"{type(exc).__name__}: {exc}",
        )
        return [fn(p) for p in payloads]

    def describe(self) -> str:
        """Short label for traces and reports."""
        return f"process-pool:{self.n_workers}"

    def close(self) -> None:
        """Release this worker count's shared pool (next use restarts it)."""
        _discard_shared_pool(self.n_workers)

    def __repr__(self) -> str:
        return f"ParallelExecutor(n_workers={self.n_workers})"


def resolve_executor(n_jobs: int | None = None):
    """Build the executor an ``n_jobs`` option (or the environment) asks for."""
    n = effective_n_jobs(n_jobs)
    return ParallelExecutor(n) if n > 1 else SerialExecutor()


class SharedArray:
    """A read-only ``numpy`` array broadcast to workers via shared memory.

    The owner copies the array into a POSIX shared-memory segment once;
    the handle (name + shape + dtype, a few bytes) is what task payloads
    carry. Workers attach by name, slice out what they need (fancy indexing
    copies), and detach — the dataset is never pickled per task.

    Lifecycle: the creating process calls :meth:`close` + :meth:`unlink`
    (or uses the instance as a context manager) once the parallel phase is
    done; workers call :meth:`close` after reading.
    """

    __slots__ = ("name", "shape", "dtype", "_shm", "_owner")

    def __init__(self, name: str, shape: tuple, dtype: str):
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.dtype = str(dtype)
        self._shm = None
        self._owner = False

    def __reduce__(self):
        # Pickle only the handle, never the segment or the data.
        return (SharedArray, (self.name, self.shape, self.dtype))

    @classmethod
    def create(cls, array: np.ndarray) -> "SharedArray":
        """Copy ``array`` into a fresh shared-memory segment."""
        from multiprocessing import shared_memory

        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        handle = cls(shm.name, array.shape, array.dtype.str)
        handle._shm = shm
        handle._owner = True
        return handle

    def asarray(self) -> np.ndarray:
        """Attach (if needed) and view the shared segment as a read-only array."""
        if self._shm is None:
            from multiprocessing import resource_tracker, shared_memory

            self._shm = shared_memory.SharedMemory(name=self.name)
            # Attaching registers the segment with the resource tracker,
            # which unlinks what is still registered when its processes
            # exit (bpo-38119; 3.13 has track=False). A process with a
            # tracker of its own must take the entry back, or the owner's
            # segment dies with it. A child sharing its parent's tracker
            # must not: the entry it would remove is the owner's, and the
            # owner's unlink then fails inside the tracker.
            if not self._owner and _owns_resource_tracker():
                resource_tracker.unregister(self._shm._name, "shared_memory")
        view = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=self._shm.buf)
        view.flags.writeable = self._owner
        return view

    def close(self) -> None:
        """Detach this process's mapping (safe to call repeatedly)."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (owner only; after all workers detached)."""
        from multiprocessing import shared_memory

        try:
            shm = self._shm if self._shm is not None else shared_memory.SharedMemory(name=self.name)
            shm.unlink()
        except FileNotFoundError:
            pass
        finally:
            self.close()

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        if self._owner:
            self.unlink()

    def __repr__(self) -> str:
        return f"SharedArray(name={self.name!r}, shape={self.shape}, dtype={self.dtype!r})"

