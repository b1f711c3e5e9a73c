"""The MapReduce engine: map -> partition -> sort -> reduce.

Executes a :class:`~repro.mapreduce.types.JobSpec` over input splits with
Hadoop semantics (per-split map tasks, hash partitioning, per-partition key
sort, one reduce call per key) while tracking, for every task, an abstract
*cost* that the simulated cluster turns into a makespan. Every task runs
in-process, in task order, so execution is deterministic: *where* a task
runs is the simulated cluster's business (Table 3's elasticity), and only
its makespan depends on it.

Task bodies are pure module-level functions (:func:`execute_map_task`,
:func:`execute_reduce_task`). Each executed phase is placed on the
cluster's one scheduler,
:meth:`~repro.mapreduce.cluster.SimulatedCluster.simulate_phase`.
"""

from __future__ import annotations

import time
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.mapreduce.cluster import PhaseTask, SimulatedCluster, TaskStats
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import FileSplit
from repro.mapreduce.types import JobSpec, MapTaskResult
from repro.observability import get_tracer
from repro.observability.metrics import time_buckets

__all__ = [
    "TaskContext",
    "JobResult",
    "MapReduceEngine",
    "stable_hash",
    "approx_bytes",
    "execute_map_task",
    "execute_reduce_task",
]

def approx_bytes(obj) -> int:
    """Cheap recursive estimate of a payload's in-memory size.

    Exact byte accounting would mean pickling every record; traced runs only
    need enough fidelity to attribute shuffle volume and data skew, so numpy
    buffers count their ``nbytes``, strings/bytes their length, containers
    recurse with a small per-slot overhead, and scalars count one machine
    word. Only computed when tracing is enabled.
    """
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(obj, (str, bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 8 * len(obj) + sum(approx_bytes(v) for v in obj)
    if isinstance(obj, dict):
        # Per-slot overhead charged like list/tuple (one word per stored
        # pointer, two pointers per entry), separate from the recursion.
        return 16 * len(obj) + sum(approx_bytes(k) + approx_bytes(v) for k, v in obj.items())
    return 8


def _validation_enabled() -> bool:
    """Whether the engine should self-check counter conservation.

    The substrate has no per-job config object, so only the global
    ``REPRO_VALIDATE`` switch applies here (lazy import: repro.verify sits
    above the substrate in the layering).
    """
    from repro.verify.invariants import validation_enabled

    return validation_enabled()


@dataclass
class TaskContext:
    """What a running task sees: its job parameters and shared counters."""

    job: JobSpec
    counters: Counters
    task_id: str = ""

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Bump a counter from inside a mapper/reducer."""
        self.counters.increment(group, name, amount)


@dataclass
class JobResult:
    """Everything a driver needs from a finished job."""

    job_name: str
    output: list[tuple]  # reduce output records (or map output for map-only jobs)
    counters: Counters
    map_stats: TaskStats
    reduce_stats: TaskStats
    partitions: dict[int, list[tuple]] = field(default_factory=dict)
    from_checkpoint: bool = False  # restored by job-flow recovery, not re-executed

    @property
    def makespan(self) -> float:
        """Simulated wall-clock: map phase + reduce phase (reduce waits for all maps)."""
        return self.map_stats.makespan + self.reduce_stats.makespan


def stable_hash(key: Any) -> int:
    """A process-independent hash for shuffle partitioning.

    Python's builtin ``hash`` is salted per process for ``str``/``bytes``
    (PYTHONHASHSEED), so hash partitioning with it shuffles string-keyed
    jobs differently across runs. CRC32 over a canonical ``(type, repr)``
    encoding is stable across processes, platforms, and hash seeds —
    matching Hadoop, whose HashPartitioner is deterministic.
    """
    data = f"{type(key).__name__}:{key!r}".encode("utf-8", "backslashreplace")
    return zlib.crc32(data)


def _default_partitioner(key: Any, n_partitions: int) -> int:
    return stable_hash(key) % n_partitions


def _sort_key(item: tuple) -> tuple:
    key = item[0]
    # Keys of mixed types sort by (type name, repr) to stay deterministic.
    return (type(key).__name__, repr(key))


# -- pure task bodies --------------------------------------------------------


def execute_map_task(job: JobSpec, records, ctx: TaskContext) -> MapTaskResult:
    """Run one map task (the mapper over every record)."""
    emitted: list[tuple] = []
    cost = 0.0
    n_in = 0
    for record in records:
        key, value = record if isinstance(record, tuple) and len(record) == 2 else (None, record)
        n_in += 1
        for out in job.mapper(key, value, ctx):
            emitted.append(tuple(out))
        cost += job.map_cost(key, value) if job.map_cost else 1.0
    ctx.counters.increment("map", "input_records", n_in)
    ctx.counters.increment("map", "output_records", len(emitted))
    return MapTaskResult(records=emitted, n_input_records=n_in, cost=cost)


def execute_reduce_task(job: JobSpec, records: list[tuple], ctx: TaskContext):
    """Run one reduce task (one reducer call per key, in first-seen key order)."""
    grouped: dict[Any, list] = defaultdict(list)
    order: list = []
    for key, value in records:
        if key not in grouped:
            order.append(key)
        grouped[key].append(value)
    out: list[tuple] = []
    cost = 0.0
    for key in order:
        values = grouped[key]
        for rec in job.reducer(key, values, ctx):
            out.append(tuple(rec))
        cost += job.reduce_cost(key, values) if job.reduce_cost else float(len(values))
    ctx.counters.increment("reduce", "input_groups", len(order))
    ctx.counters.increment("reduce", "output_records", len(out))
    return out, cost


class MapReduceEngine:
    """Runs JobSpecs on a :class:`SimulatedCluster`.

    Parameters
    ----------
    cluster:
        The simulated cluster providing slots (default: one single-slot-ish
        node, i.e. serial semantics).
    """

    def __init__(self, cluster: SimulatedCluster | None = None, *, autoscaler=None):
        self.cluster = cluster if cluster is not None else SimulatedCluster(1)
        # Between-phase resize hook (see repro.mapreduce.autoscale); a bound
        # JobFlow installs its autoscaler here for the duration of a run.
        self.autoscaler = autoscaler

    # -- public API ----------------------------------------------------------

    def run(self, job: JobSpec, splits: list[FileSplit] | list[list[tuple]]) -> JobResult:
        """Execute ``job`` over ``splits`` and return outputs + statistics.

        ``splits`` may be HDFS :class:`FileSplit` objects or plain lists of
        ``(key, value)`` tuples (each list = one map task).
        """
        tracer = get_tracer()
        with tracer.span("mr.job", job=job.name, n_splits=len(splits)) as job_span:
            result = self._run_job(job, splits, tracer)
            job_span.set("makespan", result.makespan)
            job_span.set("n_output_records", len(result.output))
        return result

    def _run_job(self, job: JobSpec, splits, tracer) -> JobResult:
        # -- map phase -------------------------------------------------------
        split_records = []
        placements = []
        for split in splits:
            if isinstance(split, FileSplit):
                split_records.append(split.records)
                placements.append(split.preferred_nodes)
            else:
                split_records.append(split)
                placements.append(())
        counters = Counters()
        validate = _validation_enabled()
        phase_start = time.perf_counter()
        map_results = self._map_phase(job, split_records, counters, tracer)
        map_wall = time.perf_counter() - phase_start
        with tracer.span("mr.schedule", phase="map"):
            map_stats = self._schedule_phase("map", [r.cost for r in map_results], placements)
        map_stats.real_elapsed = map_wall
        counters.increment("job", "map_tasks", len(map_results))
        if validate:
            # Counter conservation: the map phase must tally each input
            # record exactly once, whatever the mapper emits.
            from repro.verify.invariants import check_counter_equals

            check_counter_equals(
                counters, "map", "input_records",
                sum(len(records) for records in split_records),
                stage=f"mr.job:{job.name}",
            )

        if job.reducer is None:
            output = [rec for r in map_results for rec in r.records]
            return JobResult(
                job_name=job.name,
                output=output,
                counters=counters,
                map_stats=map_stats,
                reduce_stats=TaskStats(n_tasks=0, total_cost=0.0, makespan=0.0),
            )

        # -- shuffle + reduce phase -----------------------------------------
        with tracer.span("mr.shuffle") as shuffle_span:
            partitions = self._shuffle(job, map_results, counters)
            shuffle_span.set("n_partitions", len(partitions))
            shuffle_span.set("n_records", counters.value("shuffle", "records"))
            if tracer.enabled:
                # Per-partition volumes, in sorted-partition (= reduce task)
                # order: the raw material for skew attribution in the report.
                ordered = sorted(partitions)
                shuffle_span.set(
                    "partition_records", [len(partitions[p]) for p in ordered]
                )
                shuffle_span.set(
                    "bytes", sum(approx_bytes(partitions[p]) for p in ordered)
                )
        phase_start = time.perf_counter()
        output, partition_outputs, reduce_costs = self._reduce_phase(
            job, partitions, counters, tracer
        )
        reduce_wall = time.perf_counter() - phase_start
        # Between-phase decision point: the map phase is scheduled and the
        # reduce queue is known, but the reduce phase is not yet placed —
        # resizing here changes the reduce schedule (makespan only; task
        # results are already computed, so outputs stay bit-identical).
        if self.autoscaler is not None:
            self.autoscaler.between_phases(job.name, map_stats, reduce_costs)
        with tracer.span("mr.schedule", phase="reduce"):
            reduce_stats = self._schedule_phase("reduce", reduce_costs, [()] * len(reduce_costs))
        reduce_stats.real_elapsed = reduce_wall
        counters.increment("job", "reduce_tasks", len(reduce_costs))
        if validate:
            from repro.verify.invariants import check_counter_equals

            check_counter_equals(
                counters, "reduce", "output_records", len(output),
                stage=f"mr.job:{job.name}",
            )
        return JobResult(
            job_name=job.name,
            output=output,
            counters=counters,
            map_stats=map_stats,
            reduce_stats=reduce_stats,
            partitions=partition_outputs,
        )

    # -- phase drivers -------------------------------------------------------

    def _map_phase(self, job, split_records, counters, tracer):
        map_results = []
        try:
            for i, records in enumerate(split_records):
                ctx = TaskContext(job=job, counters=counters, task_id=f"map-{i}")
                with tracer.span("mr.map_task", task=ctx.task_id) as task_span:
                    before = counters.copy() if tracer.enabled else None
                    start = time.perf_counter()
                    result = execute_map_task(job, records, ctx)
                    if tracer.enabled:
                        elapsed = time.perf_counter() - start
                        task_span.set("cost", result.cost)
                        task_span.set("n_input_records", result.n_input_records)
                        task_span.set("n_output_records", len(result.records))
                        task_span.set("bytes_in", approx_bytes(records))
                        task_span.set("bytes_out", approx_bytes(result.records))
                        task_span.set("counters", counters.diff(before).as_dict())
                        tracer.metrics.histogram(
                            "mr.task_seconds", time_buckets()
                        ).observe(elapsed)
                map_results.append(result)
        except Exception as exc:
            # Let structured error handling upstream (JobFlowError) report
            # the partial counter state of the failed job.
            exc.counters = counters
            raise
        return map_results

    def _reduce_phase(self, job, partitions, counters, tracer):
        output: list[tuple] = []
        reduce_costs = []
        partition_outputs: dict[int, list[tuple]] = {}
        try:
            for p in sorted(partitions):
                ctx = TaskContext(job=job, counters=counters, task_id=f"reduce-{p}")
                with tracer.span("mr.reduce_task", task=ctx.task_id) as task_span:
                    before = counters.copy() if tracer.enabled else None
                    start = time.perf_counter()
                    part_out, cost = execute_reduce_task(job, partitions[p], ctx)
                    if tracer.enabled:
                        elapsed = time.perf_counter() - start
                        task_span.set("cost", cost)
                        task_span.set("n_input_records", len(partitions[p]))
                        task_span.set("n_output_records", len(part_out))
                        task_span.set("bytes_in", approx_bytes(partitions[p]))
                        task_span.set("bytes_out", approx_bytes(part_out))
                        task_span.set("counters", counters.diff(before).as_dict())
                        tracer.metrics.histogram(
                            "mr.task_seconds", time_buckets()
                        ).observe(elapsed)
                partition_outputs[p] = part_out
                output.extend(part_out)
                reduce_costs.append(cost)
        except Exception as exc:
            exc.counters = counters
            raise
        return output, partition_outputs, reduce_costs

    def _schedule_phase(self, phase: str, costs, placements) -> TaskStats:
        """Place one executed phase's task costs on the simulated cluster.

        ``placements[i]`` holds the nodes with task ``i``'s split (HDFS
        replicas; empty for reduce tasks and plain-list splits).
        """
        tasks = [PhaseTask(c, preferred_nodes=p) for c, p in zip(costs, placements)]
        return self.cluster.simulate_phase(tasks, phase=phase)

    def _shuffle(self, job: JobSpec, map_results: list[MapTaskResult], counters: Counters):
        partitioner = job.partitioner or _default_partitioner
        partitions: dict[int, list[tuple]] = defaultdict(list)
        n_shuffled = 0
        for result in map_results:
            for record in result.records:
                p = partitioner(record[0], job.n_reducers)
                if not 0 <= p < job.n_reducers:
                    raise ValueError(f"partitioner returned {p}, valid range [0, {job.n_reducers})")
                partitions[p].append(record)
                n_shuffled += 1
        counters.increment("shuffle", "records", n_shuffled)
        for p in partitions:
            partitions[p].sort(key=_sort_key)
        return partitions
