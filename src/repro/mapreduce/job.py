"""Jobs and job flows (the EMR processing-step abstraction of Section 5.1).

A :class:`Job` binds a JobSpec to input/output paths on a filesystem; a
:class:`JobFlow` is the EMR notion of an ordered list of steps executed on a
provisioned cluster ("a collection of processing steps that EMR runs on a
specified dataset using a set of Amazon EC2 instances").

Job flows are the unit of *driver-crash recovery*: when a checkpoint store
is attached, every completed MapReduce step persists its output (plus its
counters and scheduling stats), and ``run(resume=True)`` replays the flow
restoring completed job steps from their checkpoints instead of re-executing
them. Driver-side action steps are deterministic and cheap, so they re-run
on resume. A step whose mapper or reducer raises surfaces as a structured
:class:`JobFlowError` carrying the failed step and its partial counters.

Checkpoint I/O goes through the hardened
:class:`~repro.mapreduce.storage.ResilientStore` client (a raw store passed
as ``checkpoint_store`` is wrapped automatically): every checkpoint is a
checksummed envelope written atomically, transient storage faults retry
with seeded backoff, and a checkpoint found torn or corrupted on resume is
*quarantined* (moved to ``<key>.corrupt``) and its step deterministically
re-executed — earlier steps still restore from their own good checkpoints,
so a damaged last checkpoint costs exactly one step of recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import JobResult, MapReduceEngine
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.storage import CorruptObjectError, ResilientStore
from repro.mapreduce.types import JobSpec
from repro.observability import get_tracer

__all__ = ["Job", "JobFlowStep", "JobFlow", "JobFlowError"]


class JobFlowError(RuntimeError):
    """A job-flow step raised; the original error is its ``__cause__``.

    Attributes
    ----------
    step_name / step_index:
        Which step died.
    counters:
        Partial counter state of the failed job: the tallies of every task
        that finished before the error (``None`` when the failure happened
        outside a counter scope).
    """

    def __init__(self, message: str, *, step_name: str, step_index: int, counters=None):
        super().__init__(message)
        self.step_name = step_name
        self.step_index = step_index
        self.counters = counters


@dataclass
class Job:
    """A JobSpec bound to filesystem input/output paths."""

    spec: JobSpec
    input_path: str
    output_path: str

    def run(self, engine: MapReduceEngine, fs: SimulatedHDFS, *, overwrite: bool = False) -> JobResult:
        """Read splits from ``input_path``, run, write output to ``output_path``."""
        splits = fs.splits(self.input_path)
        result = engine.run(self.spec, splits)
        fs.write(self.output_path, result.output, overwrite=overwrite)
        return result


@dataclass
class JobFlowStep:
    """One step of a job flow: either a MapReduce job or a driver callable."""

    name: str
    job: Job | None = None
    action: Callable[["JobFlow"], object] | None = None

    def __post_init__(self):
        if (self.job is None) == (self.action is None):
            raise ValueError("exactly one of job/action must be provided")


@dataclass
class JobFlow:
    """An ordered list of steps over a shared engine + filesystem.

    Attributes
    ----------
    results:
        Per-step outcome: :class:`JobResult` for job steps, the action's
        return value for action steps.
    checkpoint_store:
        Optional S3-like object store (``put/get/exists``); when set, each
        completed job step's output is persisted so the flow can be resumed
        after a driver crash. A raw store is wrapped in a
        :class:`~repro.mapreduce.storage.ResilientStore` (checksummed
        envelopes, atomic writes, seeded retries); pass a pre-built
        resilient client to control its retry policy.
    checkpoint_prefix:
        Key prefix for this flow's checkpoints in the store.
    restored_steps:
        Indices of steps restored from checkpoints by the last ``run``.
    autoscaler:
        Optional :class:`~repro.mapreduce.autoscale.Autoscaler`: consulted
        between the map/reduce phases of every job step and after every
        step, its resize decisions are checkpointed alongside the flow so
        a crashed driver resumes by replaying the identical scaling
        schedule.
    makespan:
        Total simulated wall-clock across all executed job steps (restored
        steps contribute their originally recorded makespan), plus any
        cold-start/drain latency the autoscaler charged.
    """

    engine: MapReduceEngine
    fs: SimulatedHDFS
    steps: list[JobFlowStep] = field(default_factory=list)
    results: list = field(default_factory=list)
    checkpoint_store: object | None = None
    checkpoint_prefix: str = "checkpoints"
    restored_steps: list[int] = field(default_factory=list)
    autoscaler: object | None = None

    def add_job(self, spec: JobSpec, input_path: str, output_path: str) -> "JobFlow":
        """Append a MapReduce step."""
        self.steps.append(JobFlowStep(name=spec.name, job=Job(spec, input_path, output_path)))
        return self

    def add_action(self, name: str, action: Callable[["JobFlow"], object]) -> "JobFlow":
        """Append a driver-side step (e.g. a merge running between jobs)."""
        self.steps.append(JobFlowStep(name=name, action=action))
        return self

    def remove_steps_named(self, *names: str) -> None:
        """Drop steps by name (used by resumable drivers to re-append
        dynamically generated downstream steps idempotently)."""
        self.steps[:] = [s for s in self.steps if s.name not in names]

    def run(self, *, resume: bool = False, max_steps: int | None = None) -> list:
        """Execute all steps in order; stores and returns per-step results.

        Parameters
        ----------
        resume:
            Restore completed job steps from the checkpoint store instead of
            re-executing them (driver-crash recovery). Action steps re-run —
            they are deterministic driver code.
        max_steps:
            Stop after this many steps, leaving the flow incomplete — the
            hook the crash/resume tests use to simulate a driver crash
            mid-flow.
        """
        tracer = get_tracer()
        self.results = []
        self.restored_steps = []
        if self.autoscaler is not None:
            self.autoscaler.bind(self, resume=resume)
        executed = 0
        i = 0
        with tracer.span("jobflow.run", resume=resume) as flow_span:
            while i < len(self.steps):
                if max_steps is not None and executed >= max_steps:
                    break
                step = self.steps[i]
                if self.autoscaler is not None:
                    self.autoscaler.begin_step(i)
                if step.job is not None:
                    self.results.append(self._run_job_step(step, i, resume))
                else:
                    with tracer.span("jobflow.action", step=step.name, index=i):
                        self.results.append(step.action(self))
                if self.autoscaler is not None:
                    self.autoscaler.after_step(i, step.name, self.results[-1])
                executed += 1
                i += 1
            flow_span.set("n_steps", len(self.steps))
            flow_span.set("executed", executed)
            flow_span.set("restored", list(self.restored_steps))
            flow_span.set("makespan", self.makespan)
        return self.results

    @property
    def makespan(self) -> float:
        """Sum of simulated makespans over completed job steps, plus any
        autoscaling overhead (cold starts, decommission drains)."""
        total = sum(r.makespan for r in self.results if isinstance(r, JobResult))
        if self.autoscaler is not None:
            total += self.autoscaler.overhead
        return total

    # -- internals -----------------------------------------------------------

    def _checkpoint_key(self, index: int) -> str:
        return f"{self.checkpoint_prefix}/step-{index:03d}"

    def _checkpoint_client(self) -> ResilientStore | None:
        """The hardened client over ``checkpoint_store`` (cached per store)."""
        store = self.checkpoint_store
        if store is None:
            return None
        if isinstance(store, ResilientStore):
            return store
        cached = getattr(self, "_ckpt_client", None)
        if cached is None or cached.inner is not store:
            cached = ResilientStore(store)
            self._ckpt_client = cached
        return cached

    def _run_job_step(self, step: JobFlowStep, index: int, resume: bool) -> JobResult:
        tracer = get_tracer()
        key = self._checkpoint_key(index)
        store = self._checkpoint_client()
        with tracer.span("jobflow.step", step=step.name, index=index) as step_span:
            reexecuting_corrupt = False
            if resume and store is not None and store.exists(key):
                try:
                    payload = store.get(key)
                except CorruptObjectError as exc:
                    # The checkpoint is torn or bit-flipped (the client
                    # already emitted storage.corruption): move it aside for
                    # post-mortem and fall back to re-executing the step
                    # (earlier steps already restored from good checkpoints).
                    quarantine_key = store.quarantine(key)
                    reexecuting_corrupt = True
                    step_span.set("checkpoint_quarantined", quarantine_key)
                    step_span.set("corrupt_reason", exc.reason)
                else:
                    if self.autoscaler is not None:
                        # The step's phases never re-run, so its between-
                        # phase decisions replay from the log — before the
                        # restore write, mirroring the original run's order
                        # (the resize preceded the step's output placement).
                        self.autoscaler.replay_step(index)
                    result = self._restore(step, payload)
                    self.restored_steps.append(index)
                    step_span.set("from_checkpoint", True)
                    tracer.event(
                        "jobflow.restore",
                        step=step.name, index=index, key=key, n_records=len(result.output),
                    )
                    return result
            try:
                # On resume the output may already exist from the crashed run;
                # Hadoop semantics are delete-then-rerun.
                result = step.job.run(self.engine, self.fs, overwrite=resume)
            except Exception as exc:
                raise JobFlowError(
                    f"job flow step {index} ({step.name!r}) failed: {exc}",
                    step_name=step.name,
                    step_index=index,
                    counters=getattr(exc, "counters", None),
                ) from exc
            if reexecuting_corrupt:
                # The recomputation charged to recover from the damaged
                # checkpoint, itemized in the fault ledger as wasted cost.
                tracer.event(
                    "fault.checkpoint_reexecuted",
                    step=step.name, index=index, key=key, wasted_cost=result.makespan,
                )
            if store is not None:
                n_bytes = store.put(
                    key,
                    {
                        "step_name": step.name,
                        "output": list(result.output),
                        "counters": result.counters.as_dict(),
                        "map_stats": result.map_stats,
                        "reduce_stats": result.reduce_stats,
                    },
                )
                tracer.event(
                    "jobflow.checkpoint",
                    step=step.name, index=index, key=key, n_records=len(result.output),
                    bytes=n_bytes,
                )
            step_span.set("makespan", result.makespan)
        return result

    def _restore(self, step: JobFlowStep, payload: dict) -> JobResult:
        """Re-materialise a completed step from its checkpoint."""
        output = list(payload["output"])
        self.fs.write(step.job.output_path, output, overwrite=True)
        return JobResult(
            job_name=step.name,
            output=output,
            counters=Counters.from_dict(payload["counters"]),
            map_stats=payload["map_stats"],
            reduce_stats=payload["reduce_stats"],
            from_checkpoint=True,
        )
