"""Closed-loop autoscaling for the simulated MapReduce substrate.

The paper's Table 3 shows DASC's runtime halving per node-doubling — but
only for *statically* sized clusters. The workload itself is not uniform:
stage 1 (hashing) is map-bound, stage 2 (per-bucket Gram/eigendecomposition)
is reduce-bound and skew-prone, so the resource mix that is right for one
phase is wrong for the next. This module closes the loop: an
:class:`Autoscaler` reads the same per-phase signals the observability
plane derives from ``cluster.phase`` events — slot utilization, critical-
path slack, straggler ratio, pending-task queue depth — and resizes the
cluster (:meth:`SimulatedCluster.add_nodes` /
:meth:`SimulatedCluster.decommission_nodes`) at two kinds of decision
points:

* **between phases** of a job step (after the map phase is scheduled and
  the reduce queue is known, before the reduce phase is scheduled), and
* **between job-flow steps** (after each step completes).

Scale-ups charge a flat cold-start latency to the flow's makespan (nodes
boot in parallel); scale-downs run the HDFS drain protocol — re-replicate
every retiring node's blocks onto survivors *before* removal
(:meth:`SimulatedHDFS.decommission_nodes`) — and charge the re-replication
time. Every decision is appended to a checkpointed log
(``<prefix>/autoscale-log``) so a crashed driver resumes by *replaying*
the recorded scaling schedule bit-identically instead of re-deciding;
signals of restored steps never recompute, so replay is the only way the
resumed trajectory can match the original.

The policy, :class:`TargetMakespan`, scales to hit a simulated-makespan
SLO: it grows when the pending phase would overshoot the remaining
budget and shrinks when utilization is low and the projection fits
comfortably at fewer nodes. A run without an autoscaler is the static
reference.

The bit-identity contract extends unchanged: scaling alters *when* work
runs (makespans, the ``autoscale.*`` ledger), never *what* it computes —
labels, counters, and partitions are identical to a static run.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.mapreduce.cluster import ScaleReport, SimulatedCluster
from repro.observability import get_tracer

__all__ = [
    "PhaseSignals",
    "ScaleDecision",
    "AutoscalerState",
    "TargetMakespan",
    "Autoscaler",
]


@dataclass(frozen=True)
class PhaseSignals:
    """What the observability plane knows right after a scheduled phase.

    Derived from the phase's :class:`~repro.mapreduce.cluster.TaskStats`
    exactly the way :func:`repro.observability.analysis.phase_critical_path`
    derives its rows from ``cluster.phase`` events: ``critical_path`` is
    the busy time of the most loaded slot, ``slack`` the idle slot-time
    below it, ``straggler_ratio`` the most loaded slot over the median
    one. ``pending_*`` describe the queue entering the *next* phase — the
    quantity a scale decision actually buys time against.
    """

    trigger: str  # stable decision-point id (replay matches on it)
    phase: str  # what just ran: "map", "reduce", or "step"
    n_tasks: int = 0
    n_slots: int = 0
    makespan: float = 0.0
    total_cost: float = 0.0
    utilization: float = 1.0
    critical_path: float = 0.0
    slack: float = 0.0
    straggler_ratio: float = 1.0
    pending_phase: str = "map"  # which slot pool the pending queue draws on
    pending_tasks: int = 0
    pending_cost: float = 0.0
    max_pending_cost: float = 0.0

    @classmethod
    def from_stats(
        cls,
        trigger: str,
        phase: str,
        stats,
        *,
        pending_costs=(),
        pending_phase: str = "map",
    ) -> "PhaseSignals":
        per_slot = [float(c) for c in stats.per_slot_cost]
        critical = max(per_slot, default=0.0)
        median = sorted(per_slot)[len(per_slot) // 2] if per_slot else 0.0
        pending = [float(c) for c in pending_costs]
        return cls(
            trigger=trigger,
            phase=phase,
            n_tasks=stats.n_tasks,
            n_slots=len(per_slot),
            makespan=float(stats.makespan),
            total_cost=float(stats.total_cost),
            utilization=float(stats.utilization),
            critical_path=critical,
            slack=sum(critical - c for c in per_slot),
            straggler_ratio=critical / median if median > 0 else 1.0,
            pending_phase=pending_phase,
            pending_tasks=len(pending),
            pending_cost=sum(pending),
            max_pending_cost=max(pending, default=0.0),
        )


@dataclass(frozen=True)
class ScaleDecision:
    """What a policy wants done at one decision point."""

    action: str  # "up" | "down" | "hold"
    delta: int = 0
    reason: str = ""

    def __post_init__(self):
        if self.action not in ("up", "down", "hold"):
            raise ValueError(f"action must be 'up', 'down' or 'hold', got {self.action!r}")
        if self.action != "hold" and self.delta < 1:
            raise ValueError(f"{self.action}-decisions need delta >= 1, got {self.delta}")


@dataclass(frozen=True)
class AutoscalerState:
    """Cluster + ledger snapshot a policy decides against."""

    n_nodes: int
    map_slots_per_node: int
    reduce_slots_per_node: int
    elapsed: float  # simulated makespan so far, scaling overhead included
    node_seconds: float  # provisioned node-time consumed so far
    overhead: float  # cold-start + drain latency charged so far
    cold_start: float  # what the next scale-up would charge

    def slots_per_node(self, phase: str) -> int:
        return self.reduce_slots_per_node if phase == "reduce" else self.map_slots_per_node


def _projected_makespan(pending_cost: float, max_cost: float, n_slots: int) -> float:
    """LPT lower bound for the pending queue on ``n_slots`` slots."""
    if n_slots < 1:
        return math.inf
    return max(pending_cost / n_slots, max_cost)


@dataclass
class TargetMakespan:
    """Scale to finish within ``target`` simulated seconds (the SLO).

    At a decision point with a known pending queue, the policy projects the
    queue's makespan at the current size (the LPT lower bound
    ``max(total/slots, max_task)``). If the projection overshoots the
    remaining budget, it grows to the smallest node count whose projection
    fits the budget *after* the cold start is charged; one indivisible task
    longer than the whole budget caps what growing can buy, so the policy
    never scales past ``max_nodes`` chasing it. If utilization is below
    ``scale_down_utilization`` and the projection fits at fewer nodes, it
    shrinks to the smallest sufficient size. ``headroom`` keeps a safety
    fraction of the budget unspent (1.1 = decide as if the SLO were 10%
    tighter). Without pending-queue information it holds.
    """

    target: float
    min_nodes: int = 1
    max_nodes: int = 64
    scale_down_utilization: float = 0.5
    headroom: float = 1.1
    name = "target-makespan"  # recorded as each decision's "policy"

    def __post_init__(self):
        if self.target <= 0:
            raise ValueError(f"target must be > 0, got {self.target}")
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise ValueError(
                f"need 1 <= min_nodes <= max_nodes, got {self.min_nodes}..{self.max_nodes}"
            )
        if self.headroom < 1.0:
            raise ValueError(f"headroom must be >= 1, got {self.headroom}")

    def decide(self, signals: PhaseSignals, state: AutoscalerState) -> ScaleDecision:
        if signals.pending_tasks == 0:
            return ScaleDecision("hold", reason="no pending queue to scale against")
        spn = state.slots_per_node(signals.pending_phase)
        budget = max(self.target - state.elapsed, 0.0) / self.headroom
        projected = _projected_makespan(
            signals.pending_cost, signals.max_pending_cost, state.n_nodes * spn
        )
        if projected > budget:
            # Smallest size whose projection fits after paying the boot.
            usable = max(budget - state.cold_start, signals.max_pending_cost, 1e-12)
            needed = math.ceil(signals.pending_cost / (spn * usable))
            needed = min(self.max_nodes, max(needed, state.n_nodes))
            if needed > state.n_nodes:
                return ScaleDecision(
                    "up",
                    delta=needed - state.n_nodes,
                    reason=(
                        f"pending {signals.pending_phase} queue projects "
                        f"{projected:.3g}s > budget {budget:.3g}s"
                    ),
                )
            return ScaleDecision("hold", reason="over budget but already at max_nodes")
        if signals.utilization < self.scale_down_utilization:
            usable = max(budget, 1e-12)
            needed = max(self.min_nodes, math.ceil(signals.pending_cost / (spn * usable)))
            if needed < state.n_nodes:
                return ScaleDecision(
                    "down",
                    delta=state.n_nodes - needed,
                    reason=(
                        f"utilization {signals.utilization:.2f} below "
                        f"{self.scale_down_utilization}; {needed} nodes fit the budget"
                    ),
                )
        return ScaleDecision("hold", reason="projection fits the remaining budget")


class Autoscaler:
    """Drives policy decisions into one :class:`~repro.mapreduce.job.JobFlow`.

    Lifecycle: :meth:`bind` at flow start resets the cluster to its
    provisioned size (so a resumed run replays the same trajectory from
    the same origin) and, on resume, loads the checkpointed decision log.
    The engine then reports a decision point between the map and reduce
    phases of every job, and the flow reports one after every step. Each
    point either *replays* the next logged decision (matched by its stable
    trigger id) or consults the policy live; either way the resize is
    applied through the cluster/HDFS drain primitives, ``autoscale.*``
    trace events are emitted, and the updated log is persisted.

    Parameters
    ----------
    policy:
        The :class:`TargetMakespan` consulted at live decision points.
    cold_start:
        Simulated latency one scale-up charges to the flow makespan (flat
        per event — nodes boot in parallel).
    drain_cost_per_block:
        Simulated re-replication latency per block copy a decommission
        drain moves off the retiring nodes.
    """

    def __init__(
        self,
        policy: TargetMakespan,
        *,
        cold_start: float = 0.0,
        drain_cost_per_block: float = 0.0,
    ):
        if cold_start < 0:
            raise ValueError(f"cold_start must be >= 0, got {cold_start}")
        if drain_cost_per_block < 0:
            raise ValueError(f"drain_cost_per_block must be >= 0, got {drain_cost_per_block}")
        self.policy = policy
        self.cold_start = float(cold_start)
        self.drain_cost_per_block = float(drain_cost_per_block)
        self.decisions: list[dict] = []
        self.overhead = 0.0
        self.node_seconds = 0.0
        self._elapsed = 0.0
        self._partial = 0.0  # makespan of the current step already observed
        self._replay: deque = deque()
        self._flow = None
        self._initial_nodes: int | None = None
        self._initial_fs_nodes: int | None = None
        self._step_index = -1
        self._step_points = 0
        self._log_key: str | None = None

    # -- wiring --------------------------------------------------------------

    @property
    def cluster(self) -> SimulatedCluster | None:
        return None if self._flow is None else self._flow.engine.cluster

    @property
    def n_nodes(self) -> int | None:
        """Current cluster size (``None`` before the first bind)."""
        cluster = self.cluster
        return None if cluster is None else cluster.n_nodes

    def bind(self, flow, *, resume: bool = False) -> None:
        """Attach to a flow at run start; load the decision log on resume.

        Resets the cluster (and filesystem node pool) to the provisioned
        size — a bookkeeping rewind, not a simulated drain — so replayed
        decisions re-grow the same trajectory the original run took.
        """
        if self._flow is not None and self._flow is not flow:
            raise RuntimeError("an Autoscaler drives exactly one JobFlow")
        self._flow = flow
        flow.engine.autoscaler = self
        cluster = flow.engine.cluster
        if self._initial_nodes is None:
            self._initial_nodes = cluster.n_nodes
            self._initial_fs_nodes = getattr(flow.fs, "n_nodes", None)
        cluster.n_nodes = self._initial_nodes
        if self._initial_fs_nodes is not None:
            flow.fs.n_nodes = self._initial_fs_nodes
            flow.fs.replication = min(flow.fs._requested_replication, flow.fs.n_nodes)
        store = flow._checkpoint_client()
        self._log_key = (
            f"{flow.checkpoint_prefix}/autoscale-log" if store is not None else None
        )
        self.decisions = []
        self.overhead = 0.0
        self.node_seconds = 0.0
        self._elapsed = 0.0
        self._partial = 0.0
        self._step_index = -1
        self._step_points = 0
        self._replay.clear()
        if resume and store is not None and store.exists(self._log_key):
            self._replay.extend(store.get(self._log_key)["decisions"])

    # -- decision points -----------------------------------------------------

    def begin_step(self, index: int) -> None:
        """The flow is about to run step ``index``."""
        self._step_index = index
        self._step_points = 0
        self._partial = 0.0

    def between_phases(self, job_name: str, map_stats, reduce_costs) -> None:
        """The engine finished a job's map phase; the reduce queue is known.

        Called once per reducer-bearing job, after the map phase is
        scheduled and before the reduce phase is — the point where growing
        (or shrinking) the cluster still changes the reduce schedule.
        """
        self._step_points += 1
        trigger = (
            f"step-{self._step_index:03d}:{job_name}#{self._step_points}:between-phases"
        )
        self._observe(map_stats.makespan)
        self._point(
            PhaseSignals.from_stats(
                trigger,
                "map",
                map_stats,
                pending_costs=reduce_costs,
                pending_phase="reduce",
            )
        )

    def after_step(self, index: int, name: str, result) -> None:
        """The flow completed step ``index`` (job, action, or restored job)."""
        trigger = f"step-{index:03d}:{name}:end"
        makespan = float(getattr(result, "makespan", 0.0) or 0.0)
        self._observe(max(0.0, makespan - self._partial))
        self._partial = 0.0
        stats = getattr(result, "reduce_stats", None)
        if stats is not None and getattr(stats, "n_tasks", 0):
            signals = PhaseSignals.from_stats(trigger, "reduce", stats)
        else:
            stats = getattr(result, "map_stats", None)
            if stats is not None and getattr(stats, "n_tasks", 0):
                signals = PhaseSignals.from_stats(trigger, "map", stats)
            else:
                signals = PhaseSignals(trigger=trigger, phase="step")
        self._point(signals)

    def replay_step(self, index: int) -> None:
        """Apply the logged between-phase decisions of a restored step.

        A step restored from its checkpoint never re-runs its phases, so
        its between-phase decision points never fire live — this flushes
        them from the replay log in order (the step's ``:end`` point still
        fires normally via :meth:`after_step`).
        """
        prefix = f"step-{index:03d}:"
        while (
            self._replay
            and self._replay[0]["trigger"].startswith(prefix)
            and not self._replay[0]["trigger"].endswith(":end")
        ):
            self._apply(self._replay.popleft(), replay=True)

    # -- internals -----------------------------------------------------------

    def _observe(self, makespan: float) -> None:
        cluster = self.cluster
        self._elapsed += makespan
        self._partial += makespan
        self.node_seconds += makespan * (cluster.n_nodes if cluster is not None else 0)

    def _state(self) -> AutoscalerState:
        cluster = self.cluster
        return AutoscalerState(
            n_nodes=cluster.n_nodes,
            map_slots_per_node=cluster.node.map_slots,
            reduce_slots_per_node=cluster.node.reduce_slots,
            elapsed=self._elapsed + self.overhead,
            node_seconds=self.node_seconds,
            overhead=self.overhead,
            cold_start=self.cold_start,
        )

    def _point(self, signals: PhaseSignals) -> None:
        if self._replay:
            head = self._replay[0]
            if head["trigger"] == signals.trigger:
                self._apply(self._replay.popleft(), replay=True)
                return
            # The run diverged from the log (a step the crashed run passed
            # is re-executing): the remaining log no longer lines up, and
            # deterministic signals reproduce the same schedule live.
            self._replay.clear()
        decision = self.policy.decide(signals, self._state())
        cluster = self.cluster
        delta = decision.delta
        if decision.action == "down":
            delta = min(delta, cluster.n_nodes - 1)  # never drain the last node
        if decision.action == "hold" or delta < 1:
            entry = self._entry(signals.trigger, "hold", 0, ScaleReport(), decision.reason)
        elif decision.action == "up":
            report = cluster.add_nodes(delta, cold_start=self.cold_start)
            self._flow.fs.add_nodes(delta)
            entry = self._entry(signals.trigger, "up", delta, report, decision.reason)
        else:
            report = cluster.decommission_nodes(
                delta, fs=self._flow.fs, drain_cost_per_block=self.drain_cost_per_block
            )
            entry = self._entry(signals.trigger, "down", delta, report, decision.reason)
        self.overhead += entry["cold_start"] + entry["drain_cost"]
        # Snapshot the ledger *after* the decision so replay restores the
        # exact accounting a live decision would have left behind.
        entry["elapsed"] = self._elapsed
        entry["node_seconds"] = self.node_seconds
        entry["partial"] = self._partial
        self.decisions.append(entry)
        self._emit(entry, signals, replay=False)
        self._persist()

    def _apply(self, entry: dict, *, replay: bool) -> None:
        """Re-apply a logged decision: same resize, same recorded charges."""
        cluster = self.cluster
        delta = int(entry["delta"])
        if entry["action"] == "up":
            cluster.add_nodes(delta, cold_start=self.cold_start)
            self._flow.fs.add_nodes(delta)
        elif entry["action"] == "down":
            cluster.decommission_nodes(
                delta, fs=self._flow.fs, drain_cost_per_block=self.drain_cost_per_block
            )
        self.overhead += float(entry["cold_start"]) + float(entry["drain_cost"])
        self._elapsed = float(entry["elapsed"])
        self.node_seconds = float(entry["node_seconds"])
        self._partial = float(entry["partial"])
        self.decisions.append(dict(entry))
        self._emit(entry, None, replay=replay)
        self._persist()

    def _entry(
        self, trigger: str, action: str, delta: int, report: ScaleReport, reason: str
    ) -> dict:
        cluster = self.cluster
        before = cluster.n_nodes - (delta if action == "up" else -delta if action == "down" else 0)
        return {
            "trigger": trigger,
            "action": action,
            "delta": int(delta),
            "n_before": int(before),
            "n_after": int(cluster.n_nodes),
            "cold_start": float(report.cold_start),
            "drain_cost": float(report.drain_cost),
            "blocks_moved": int(report.blocks_moved),
            "reason": reason,
            "policy": self.policy.name,
        }

    def _emit(self, entry: dict, signals: PhaseSignals | None, *, replay: bool) -> None:
        tracer = get_tracer()
        if not tracer.enabled:
            return
        attrs = {
            "trigger": entry["trigger"],
            "action": entry["action"],
            "delta": entry["delta"],
            "n_before": entry["n_before"],
            "n_after": entry["n_after"],
            "policy": entry["policy"],
            "reason": entry["reason"],
            "replay": replay,
        }
        if signals is not None:
            attrs["utilization"] = signals.utilization
            attrs["pending_tasks"] = signals.pending_tasks
            attrs["straggler_ratio"] = signals.straggler_ratio
        tracer.event("autoscale.decision", **attrs)
        if entry["action"] == "up" and entry["cold_start"] > 0:
            tracer.event(
                "autoscale.cold_start",
                trigger=entry["trigger"],
                n_added=entry["delta"],
                wasted_cost=entry["cold_start"],
            )
        if entry["action"] == "down":
            tracer.event(
                "autoscale.drain",
                trigger=entry["trigger"],
                n_removed=entry["delta"],
                blocks_moved=entry["blocks_moved"],
                wasted_cost=entry["drain_cost"],
            )

    def _persist(self) -> None:
        if self._log_key is not None:
            self._flow._checkpoint_client().put(self._log_key, {"decisions": self.decisions})

    # -- reporting -----------------------------------------------------------

    def schedule(self) -> list[tuple[str, str, int, int]]:
        """The scaling schedule as ``(trigger, action, n_before, n_after)``
        tuples — the compact form the replay gates compare."""
        return [
            (d["trigger"], d["action"], d["n_before"], d["n_after"]) for d in self.decisions
        ]

    def summary(self) -> dict:
        """Ledger roll-up: decision counts, node trajectory, overheads."""
        actions: dict[str, int] = {"up": 0, "down": 0, "hold": 0}
        for d in self.decisions:
            actions[d["action"]] = actions.get(d["action"], 0) + 1
        return {
            "policy": self.policy.name,
            "decisions": len(self.decisions),
            "actions": actions,
            "initial_nodes": self._initial_nodes,
            "final_nodes": self.n_nodes,
            "cold_start": sum(d["cold_start"] for d in self.decisions),
            "drain_cost": sum(d["drain_cost"] for d in self.decisions),
            "blocks_moved": sum(d["blocks_moved"] for d in self.decisions),
            "overhead": self.overhead,
            "node_seconds": self.node_seconds,
        }
