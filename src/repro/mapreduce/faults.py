"""Fault injection: task failures, node preemption, stragglers, speculation.

Hadoop's reliability story — the reason the paper can run 78-hour jobs on
rented nodes — has three mechanisms, all modelled here against the
simulated engine:

* **task re-execution** — any failed task attempt is simply re-run (same
  input split, same deterministic function) up to ``mapred.map.max.attempts``
  times: :class:`FaultPolicy`;
* **node-failure recovery** — a preempted node (spot instance reclaim) loses
  its in-flight attempts *and* the map outputs it held, which the scheduler
  re-places on surviving nodes and re-charges to the clock:
  :class:`NodeFailurePolicy`;
* **speculative execution** — tasks lagging the phase median (sick nodes,
  hot disks) are raced by a backup attempt; first finisher wins:
  :class:`StragglerPolicy`.

:class:`FaultyEngine` combines all three on top of
:class:`~repro.mapreduce.engine.MapReduceEngine`. Because tasks are
deterministic functions of their input splits, *outputs never change* under
any failure schedule that stays below the attempt cap — only the simulated
makespan and the ``faults`` counter group do. The chaos test-suite asserts
exactly this equivalence.

The *storage* plane has the same treatment in
:mod:`repro.mapreduce.storage`: :class:`StorageFaultPolicy` /
:class:`ChaosStore` inject throttling, torn writes, bit flips, and read
outages in front of any object store, and the hardened
:class:`~repro.mapreduce.storage.ResilientStore` client absorbs every
survivable schedule. Both are re-exported here so one import covers the
full chaos vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapreduce.cluster import PhaseTask, SimulatedCluster, SpeculationConfig, TaskStats
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import MapReduceEngine, MapTaskResult, TaskContext
from repro.mapreduce.storage import ChaosStore, StorageFaultPolicy
from repro.mapreduce.types import JobSpec
from repro.observability import get_tracer
from repro.utils.rng import as_rng

__all__ = [
    "FaultPolicy",
    "NodeFailurePolicy",
    "StragglerPolicy",
    "FaultyEngine",
    "TaskFailedError",
    "StorageFaultPolicy",
    "ChaosStore",
]


class TaskFailedError(RuntimeError):
    """Raised when a task exhausts its attempts.

    The engine attaches the job's partial :class:`Counters` as a
    ``counters`` attribute before the error leaves ``run()``.
    """


@dataclass
class FaultPolicy:
    """Deterministic per-attempt task-failure schedule.

    Parameters
    ----------
    failure_rate:
        Probability that any given task *attempt* fails.
    max_attempts:
        Attempts per task before the job is failed (Hadoop default 4).
    seed:
        Randomness for the failure draws (deterministic per engine run).
    """

    failure_rate: float = 0.0
    max_attempts: int = 4
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError(f"failure_rate must be in [0, 1), got {self.failure_rate}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def make_oracle(self):
        """A fresh callable ``() -> bool`` deciding whether an attempt fails."""
        rng = as_rng(self.seed)
        rate = self.failure_rate

        def attempt_fails() -> bool:
            return bool(rng.random() < rate) if rate > 0 else False

        return attempt_fails


@dataclass
class NodeFailurePolicy:
    """Deterministic node-preemption schedule (spot-instance reclaims).

    Parameters
    ----------
    rate:
        Per-phase probability that each node is preempted during the phase.
    kills:
        Explicit schedule entries ``(phase_index, node_id, time_fraction)``
        — the node dies at ``time_fraction`` of that phase's fault-free
        makespan. Phase indices count every scheduled phase of the engine
        (job 0 map = 0, job 0 reduce = 1, job 1 map = 2, ...).
    min_survivors:
        Nodes that must stay alive; random draws are trimmed to respect it
        (the simulator additionally refuses to kill the last node).
    seed:
        Randomness for the preemption draws.
    """

    rate: float = 0.0
    kills: tuple = ()
    min_survivors: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {self.rate}")
        if self.min_survivors < 1:
            raise ValueError(f"min_survivors must be >= 1, got {self.min_survivors}")
        for entry in self.kills:
            if len(entry) != 3:
                raise ValueError(f"kills entries are (phase, node, fraction), got {entry!r}")

    def make_oracle(self):
        """A fresh callable ``(phase_index, n_nodes) -> [(node, fraction)]``."""
        rng = as_rng(self.seed)

        def draw(phase_index: int, n_nodes: int) -> list[tuple[int, float]]:
            out = [
                (int(node) % n_nodes, float(frac))
                for phase, node, frac in self.kills
                if int(phase) == phase_index
            ]
            if self.rate > 0:
                for node in range(n_nodes):
                    if rng.random() < self.rate:
                        out.append((node, float(min(max(rng.random(), 1e-9), 1.0))))
            max_kills = max(0, n_nodes - self.min_survivors)
            return out[:max_kills]

        return draw


@dataclass
class StragglerPolicy:
    """Deterministic straggler (slow-task) injection + speculation knobs.

    Parameters
    ----------
    rate:
        Probability that any given task runs slowed-down.
    slowdown:
        ``(low, high)`` multiplier range for a straggling task's runtime.
    speculation:
        Launch Hadoop-style backup attempts for lagging tasks.
    lag_threshold:
        Runtime multiple of the phase median that marks a task as lagging.
    seed:
        Randomness for the slowdown draws.
    """

    rate: float = 0.0
    slowdown: tuple = (2.0, 6.0)
    speculation: bool = True
    lag_threshold: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {self.rate}")
        low, high = self.slowdown
        if not 1.0 <= low <= high:
            raise ValueError(f"slowdown range must satisfy 1 <= low <= high, got {self.slowdown}")

    def make_oracle(self):
        """A fresh callable ``() -> float`` drawing a task's slowdown factor."""
        rng = as_rng(self.seed)
        low, high = self.slowdown

        def draw() -> float:
            if self.rate > 0 and rng.random() < self.rate:
                return float(low + (high - low) * rng.random())
            return 1.0

        return draw

    def speculation_config(self) -> SpeculationConfig | None:
        return SpeculationConfig(lag_threshold=self.lag_threshold) if self.speculation else None


class FaultyEngine(MapReduceEngine):
    """MapReduce engine with task, node, and straggler fault injection.

    Because tasks are deterministic functions of their input split, re-
    execution yields byte-identical results, so any job's *output* under a
    FaultyEngine equals its output under the plain engine — only the cost
    accounting (attempts, simulated time, ``faults`` counters) differs.

    Parameters
    ----------
    cluster:
        The simulated cluster to schedule on.
    policy:
        Per-attempt task failures (:class:`FaultPolicy`).
    node_policy:
        Whole-node preemptions (:class:`NodeFailurePolicy`).
    straggler_policy:
        Slow tasks and speculative backups (:class:`StragglerPolicy`).
    """

    def __init__(
        self,
        cluster: SimulatedCluster | None = None,
        *,
        policy: FaultPolicy | None = None,
        node_policy: NodeFailurePolicy | None = None,
        straggler_policy: StragglerPolicy | None = None,
    ):
        super().__init__(cluster)
        self.policy = policy if policy is not None else FaultPolicy()
        self.node_policy = node_policy if node_policy is not None else NodeFailurePolicy()
        self.straggler_policy = (
            straggler_policy if straggler_policy is not None else StragglerPolicy()
        )
        self._attempt_fails = self.policy.make_oracle()
        self._draw_kills = self.node_policy.make_oracle()
        self._draw_slowdown = self.straggler_policy.make_oracle()
        self._phase_index = 0

    # -- task attempts -------------------------------------------------------

    def _run_map_task(self, job: JobSpec, records, ctx: TaskContext) -> MapTaskResult:
        tracer = get_tracer()
        wasted_cost = 0.0
        for attempt in range(1, self.policy.max_attempts + 1):
            # Attempts run against scratch counters so retries cannot inflate
            # the job's real record counters: only the winning attempt's
            # deltas are merged, and only the faults group grows on failures.
            trial = TaskContext(job=job, counters=Counters(), task_id=ctx.task_id)
            result = super()._run_map_task(job, records, trial)
            if not self._attempt_fails():
                ctx.counters.merge(trial.counters)
                result.cost += wasted_cost  # lost attempts still burned slots
                if attempt > 1:
                    ctx.counters.increment("faults", "map_retries", attempt - 1)
                return result
            # Attempt failed after doing the work: discard output, retry.
            wasted_cost += result.cost
            ctx.counters.increment("faults", "map_failures")
            if tracer.enabled:
                tracer.event(
                    "fault.map_retry",
                    task=ctx.task_id, attempt=attempt, wasted_cost=result.cost,
                )
        tracer.event(
            "fault.task_exhausted",
            task=ctx.task_id, attempts=self.policy.max_attempts, wasted_cost=wasted_cost,
        )
        raise TaskFailedError(
            f"map task {ctx.task_id} failed {self.policy.max_attempts} attempts"
        )

    def _run_reduce_task(self, job: JobSpec, records, ctx: TaskContext):
        tracer = get_tracer()
        wasted_cost = 0.0
        for attempt in range(1, self.policy.max_attempts + 1):
            trial = TaskContext(job=job, counters=Counters(), task_id=ctx.task_id)
            out, cost = super()._run_reduce_task(job, records, trial)
            if not self._attempt_fails():
                ctx.counters.merge(trial.counters)
                if attempt > 1:
                    ctx.counters.increment("faults", "reduce_retries", attempt - 1)
                return out, cost + wasted_cost
            wasted_cost += cost
            ctx.counters.increment("faults", "reduce_failures")
            if tracer.enabled:
                tracer.event(
                    "fault.reduce_retry",
                    task=ctx.task_id, attempt=attempt, wasted_cost=cost,
                )
        tracer.event(
            "fault.task_exhausted",
            task=ctx.task_id, attempts=self.policy.max_attempts, wasted_cost=wasted_cost,
        )
        raise TaskFailedError(
            f"reduce task {ctx.task_id} failed {self.policy.max_attempts} attempts"
        )

    # -- phase scheduling ----------------------------------------------------

    def _schedule_phase(self, phase: str, costs, placements, counters: Counters) -> TaskStats:
        """Schedule the phase under this run's slowdown, kill and speculation draws."""
        tasks = [
            PhaseTask(c, slowdown=self._draw_slowdown(), preferred_nodes=p)
            for c, p in zip(costs, placements)
        ]
        kills = self._draw_kills(self._phase_index, self.cluster.n_nodes)
        self._phase_index += 1
        stats = self.cluster.simulate_phase(
            tasks,
            phase=phase,
            node_failures=kills,
            speculation=self.straggler_policy.speculation_config(),
        )
        if stats.n_node_failures:
            counters.increment("faults", "node_failures", stats.n_node_failures)
        if stats.n_tasks_lost:
            counters.increment("faults", "tasks_lost_to_node_failure", stats.n_tasks_lost)
        if stats.n_map_outputs_lost:
            counters.increment("faults", "map_outputs_lost", stats.n_map_outputs_lost)
        if stats.speculative_launched:
            counters.increment("faults", "speculative_launched", stats.speculative_launched)
        if stats.speculative_won:
            counters.increment("faults", "speculative_won", stats.speculative_won)
        return stats
