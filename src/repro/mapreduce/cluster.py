"""Simulated cluster: nodes, slots, and the makespan cost model.

The paper's elasticity result (Table 3) is a *scheduling* property: DASC's
buckets are independent work items, so doubling the node count roughly
halves the wall clock while memory per node and accuracy stay flat. This
module reproduces that mechanism: tasks carry abstract costs, nodes expose
map/reduce slots (Table 2: 4 map + 2 reduce per tasktracker), and one
longest-processing-time (LPT) list scheduler,
:meth:`SimulatedCluster.simulate_phase`, assigns every phase's tasks to
slots — data-locally for map tasks on HDFS splits, and under node kills,
stragglers and speculation for the fault-injecting engine. The simulated
makespan is the maximum finishing time over slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observability import get_tracer

__all__ = [
    "NodeConfig",
    "EMR_NODE_CONFIG",
    "TABLE2_DEFAULTS",
    "REMOTE_PENALTY",
    "TaskStats",
    "PhaseTask",
    "ScaleReport",
    "SpeculationConfig",
    "SimulatedCluster",
]


@dataclass(frozen=True)
class NodeConfig:
    """Per-node resources, mirroring the paper's Table 2 Hadoop settings."""

    map_slots: int = 4  # "Maximum map tasks in tasktracker"
    reduce_slots: int = 2  # "Maximum reduce tasks in tasktracker"
    memory_mb: int = 1700  # EMR instance memory (Section 5.1)
    jobtracker_heap_mb: int = 768
    namenode_heap_mb: int = 256
    tasktracker_heap_mb: int = 512
    datanode_heap_mb: int = 256
    replication: int = 3

    def __post_init__(self):
        if self.map_slots < 1 or self.reduce_slots < 1:
            raise ValueError("nodes need at least one map and one reduce slot")


#: Table 2 verbatim: the Elastic MapReduce cluster configuration.
TABLE2_DEFAULTS = NodeConfig()

#: Alias used by the EMR service layer.
EMR_NODE_CONFIG = TABLE2_DEFAULTS

#: Extra cost, as a fraction of the task's, that a task pays to run off the
#: nodes holding its split (the network read of a remote replica).
REMOTE_PENALTY = 0.25


@dataclass
class TaskStats:
    """Scheduling outcome of one phase on the simulated cluster."""

    n_tasks: int
    total_cost: float
    makespan: float
    per_slot_cost: list[float] = field(default_factory=list)
    # Tasks whose surviving attempt paid no remote-read penalty (ran on a
    # node holding their split, or had no placement to honour).
    n_local_tasks: int = 0
    # -- fault/speculation accounting (zero when the phase ran clean) --------
    n_node_failures: int = 0  # nodes preempted during the phase
    n_tasks_lost: int = 0  # in-flight attempts killed with their node
    n_map_outputs_lost: int = 0  # completed map outputs lost with their node
    speculative_launched: int = 0  # backup attempts started for stragglers
    speculative_won: int = 0  # backups that beat the original attempt
    wasted_cost: float = 0.0  # work charged to the clock but thrown away
    real_elapsed: float = 0.0  # measured wall-clock of the phase's compute
    # Node (not slot) that produced each task's surviving output, indexed by
    # the task's position in the submitted task list — what lets the trace
    # analysis plane join `mr.map_task`/`mr.reduce_task` spans to nodes.
    assigned_nodes: list[int] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        """total_cost / (slots * makespan) in (0, 1]; 1.0 = perfectly balanced."""
        if self.makespan == 0 or not self.per_slot_cost:
            return 1.0
        return self.total_cost / (len(self.per_slot_cost) * self.makespan)

    @property
    def locality_rate(self) -> float:
        """Fraction of tasks that achieved data locality (1.0 when untracked)."""
        if self.n_tasks == 0:
            return 1.0
        return self.n_local_tasks / self.n_tasks


@dataclass(frozen=True)
class PhaseTask:
    """One task entering :meth:`SimulatedCluster.simulate_phase`.

    ``cost`` is the nominal work a healthy attempt charges; ``slowdown``
    inflates the attempt's *runtime* (a straggling container / sick node)
    without changing the work a re-execution or backup would need.
    ``preferred_nodes`` are the nodes holding the task's split (empty: run
    anywhere at nominal cost).
    """

    cost: float
    slowdown: float = 1.0
    preferred_nodes: tuple = ()

    def __post_init__(self):
        if self.cost < 0:
            raise ValueError("task costs must be non-negative")
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")


@dataclass(frozen=True)
class SpeculationConfig:
    """Hadoop-style speculative execution knobs.

    A backup attempt launches for any task whose runtime exceeds
    ``lag_threshold`` times the phase's median task runtime, once the median
    runtime has elapsed (the point where the JobTracker can tell the task is
    lagging its peers). First finisher wins; the loser is killed and its
    burned slot time stays on the clock.
    """

    lag_threshold: float = 1.5

    def __post_init__(self):
        if self.lag_threshold <= 1.0:
            raise ValueError(f"lag_threshold must be > 1, got {self.lag_threshold}")


@dataclass(frozen=True)
class ScaleReport:
    """Outcome of one elastic resize of a :class:`SimulatedCluster`.

    ``cold_start`` is the provisioning latency a scale-up charges to the
    flow's simulated makespan (nodes boot in parallel, so it is flat per
    scale-up event, not per node). ``drain_cost`` is the re-replication
    time a decommission drain charges, proportional to the block copies
    moved off the retiring nodes.
    """

    added: tuple[int, ...] = ()
    removed: tuple[int, ...] = ()
    cold_start: float = 0.0
    drain_cost: float = 0.0
    blocks_moved: int = 0

    @property
    def overhead(self) -> float:
        """Total simulated latency this resize charges to the makespan."""
        return self.cold_start + self.drain_cost


@dataclass(slots=True)
class _Attempt:
    """One execution attempt of a task on a slot (internal bookkeeping)."""

    task: int
    slot: int
    start: float
    end: float
    charge: float
    completes: bool  # whether this attempt currently produces the task's output
    local: bool  # whether it ran without the remote-read penalty


class SimulatedCluster:
    """A pool of identical nodes executing task lists phase by phase.

    Parameters
    ----------
    n_nodes:
        Cluster size (the paper sweeps 16 / 32 / 64 on EMR; the lab cluster
        has 5).
    node:
        Per-node slot/heap configuration (default Table 2).
    """

    def __init__(self, n_nodes: int, *, node: NodeConfig = TABLE2_DEFAULTS):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        self.node = node

    @property
    def map_slots(self) -> int:
        """Total concurrent map tasks the cluster sustains."""
        return self.n_nodes * self.node.map_slots

    @property
    def reduce_slots(self) -> int:
        """Total concurrent reduce tasks the cluster sustains."""
        return self.n_nodes * self.node.reduce_slots

    # -- elasticity ----------------------------------------------------------

    def add_nodes(self, count: int, *, cold_start: float = 0.0) -> ScaleReport:
        """Join ``count`` fresh nodes (ids continue the contiguous range).

        ``cold_start`` is the provisioning latency the scale-up charges to
        the simulated makespan — nodes boot in parallel, so the charge is
        flat per scale-up event. Scheduling decisions made after this call
        see the enlarged slot pool; completed phases are unaffected.
        """
        if count < 1:
            raise ValueError(f"must add at least one node, got {count}")
        if cold_start < 0:
            raise ValueError(f"cold_start must be >= 0, got {cold_start}")
        added = tuple(range(self.n_nodes, self.n_nodes + int(count)))
        self.n_nodes += int(count)
        return ScaleReport(added=added, cold_start=float(cold_start))

    def decommission_nodes(
        self, count: int, *, fs=None, drain_cost_per_block: float = 0.0
    ) -> ScaleReport:
        """Drain and remove the ``count`` highest-numbered nodes.

        The drain protocol runs *between* phases, when no task attempts are
        in flight on the simulated timeline: each retiring node's HDFS
        blocks are re-replicated onto the surviving nodes (via
        ``fs.decommission_nodes`` when a :class:`SimulatedHDFS` is passed)
        before the node leaves, so no split loses all its replicas. The
        re-replication time — ``drain_cost_per_block`` per block copy moved
        — is returned for the caller to charge to the makespan. A node
        killed mid-drain (a :class:`NodeFailurePolicy` kill racing the
        drain) stops serving as a copy *source*, but the blocks already
        re-replicated survive; the filesystem falls back to the remaining
        live replicas for the rest.
        """
        if count < 1:
            raise ValueError(f"must decommission at least one node, got {count}")
        if count >= self.n_nodes:
            raise ValueError(
                f"cannot decommission {count} of {self.n_nodes} nodes: "
                "at least one node must survive"
            )
        if drain_cost_per_block < 0:
            raise ValueError(f"drain_cost_per_block must be >= 0, got {drain_cost_per_block}")
        removed = tuple(range(self.n_nodes - int(count), self.n_nodes))
        blocks_moved = 0
        if fs is not None:
            blocks_moved = fs.decommission_nodes(*removed)
        self.n_nodes -= int(count)
        return ScaleReport(
            removed=removed,
            drain_cost=blocks_moved * float(drain_cost_per_block),
            blocks_moved=blocks_moved,
        )

    def _emit_phase_event(self, phase: str, stats: "TaskStats") -> None:
        """Attribute the phase's simulated makespan per node in the trace.

        One ``cluster.phase`` event per scheduled phase with the per-node
        cost vector (slot loads folded by owning node) — the raw material
        for the Table-3 makespan attribution in ``trace report``. The event
        also carries the scheduling attribution the trace-analysis plane
        needs: ``max_slot_cost`` (busy time of the most loaded slot — the
        phase's critical path, equal to the makespan on gap-free schedules
        and at most the makespan when faults introduce idle gaps),
        ``n_slots``, and ``task_nodes`` (the node that produced each task's
        surviving output, in task-submission order).
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        per_node = [0.0] * self.n_nodes
        if stats.per_slot_cost:
            slots_per_node = max(1, len(stats.per_slot_cost) // self.n_nodes)
            for slot, cost in enumerate(stats.per_slot_cost):
                per_node[min(slot // slots_per_node, self.n_nodes - 1)] += cost
        tracer.event(
            "cluster.phase",
            phase=phase,
            n_nodes=self.n_nodes,
            n_slots=len(stats.per_slot_cost),
            n_tasks=stats.n_tasks,
            makespan=stats.makespan,
            total_cost=stats.total_cost,
            max_slot_cost=max(stats.per_slot_cost, default=0.0),
            utilization=stats.utilization,
            locality_rate=stats.locality_rate,
            per_node_cost=[round(c, 9) for c in per_node],
            task_nodes=list(stats.assigned_nodes),
            n_node_failures=stats.n_node_failures,
            n_tasks_lost=stats.n_tasks_lost,
            n_map_outputs_lost=stats.n_map_outputs_lost,
            speculative_launched=stats.speculative_launched,
            speculative_won=stats.speculative_won,
            wasted_cost=stats.wasted_cost,
        )

    # -- the scheduler -------------------------------------------------------

    def simulate_phase(
        self,
        tasks,
        *,
        phase: str = "map",
        node_failures=(),
        speculation: SpeculationConfig | None = None,
    ) -> TaskStats:
        """Schedule one phase's tasks on the cluster: its only scheduler.

        ``tasks`` is a list of :class:`PhaseTask`. Tasks are placed longest
        runtime first (LPT, a 4/3-optimal makespan heuristic and a good model
        of Hadoop's greedy task assignment), each on the least-loaded slot,
        ties going to the lowest slot. A task with ``preferred_nodes`` (its
        split's replicas) takes a data-local slot whenever that finishes no
        later than the best remote slot *including* the
        :data:`REMOTE_PENALTY` a remote read charges — the tradeoff Hadoop's
        scheduler makes.

        Faults layer on that placement; without them this is the plain LPT
        schedule. ``node_failures`` is a list of ``(node_id, time_fraction)``
        kills: the node is preempted at ``time_fraction`` of the phase's
        fault-free makespan, taking down its in-flight attempts and — Hadoop
        map-output semantics — any map outputs it was holding; reduce outputs
        are already on the DFS and survive. Lost work is re-placed on the
        surviving nodes and re-charged to the clock. ``speculation`` races
        stragglers (tasks with ``slowdown > 1``) with a backup attempt at
        nominal speed; first finisher wins.

        Because task *results* are computed deterministically by the engine,
        everything here is pure cost/latency accounting — the invariant the
        fault-tolerance tests assert is that outputs never change, only the
        makespan and the fault counters do.
        """
        if phase not in ("map", "reduce"):
            raise ValueError(f"phase must be 'map' or 'reduce', got {phase!r}")
        per_node = self.node.map_slots if phase == "map" else self.node.reduce_slots
        n_slots = self.n_nodes * per_node
        n_tasks = len(tasks)
        costs = [float(t.cost) for t in tasks]
        slowdowns = [float(t.slowdown) for t in tasks]
        preferred = [frozenset(int(p) % self.n_nodes for p in t.preferred_nodes) for t in tasks]
        tracer = get_tracer()
        stats = TaskStats(n_tasks=n_tasks, total_cost=0.0, makespan=0.0)
        free = [0.0] * n_slots
        slot_charge = [0.0] * n_slots
        attempts: list[_Attempt] = []
        completion = [0.0] * n_tasks

        durations = [c * s for c, s in zip(costs, slowdowns)]
        median = sorted(durations)[n_tasks // 2] if n_tasks else 0.0

        # -- pass 1: LPT placement (locality-aware) + speculative backups ----
        # A stable reverse sort keeps equal runtimes in submission order.
        for i in sorted(range(n_tasks), key=durations.__getitem__, reverse=True):
            cost, slowdown, local_nodes = costs[i], slowdowns[i], preferred[i]
            best_local = best_remote = None
            for slot in range(n_slots):
                if local_nodes and slot // per_node in local_nodes:
                    if best_local is None or free[slot] < free[best_local]:
                        best_local = slot
                elif best_remote is None or free[slot] < free[best_remote]:
                    best_remote = slot
            remote_cost = cost * (1.0 + REMOTE_PENALTY) if local_nodes else cost
            use_local = best_local is not None and (
                best_remote is None
                or free[best_local] + cost * slowdown <= free[best_remote] + remote_cost * slowdown
            )
            slot = best_local if use_local else best_remote
            run_cost = cost if use_local else remote_cost
            dur = run_cost * slowdown
            # Positional arguments: this runs once per task, keyword ones cost
            # twice as much.
            a = _Attempt(i, slot, free[slot], free[slot] + dur, run_cost, True,
                         use_local or not local_nodes)
            slot_charge[slot] += run_cost
            free[slot] = a.end
            attempts.append(a)
            completion[i] = a.end

            if (
                speculation is not None
                and median > 0
                and dur > speculation.lag_threshold * median
                and slowdown > 1.0
            ):
                # The task is visibly lagging once the median runtime has
                # elapsed: launch a backup on the least-loaded slot of
                # another node, running at nominal speed.
                detect = a.start + median
                backup_slot = None
                for slot2 in range(n_slots):
                    if slot2 // per_node == slot // per_node:
                        continue
                    if backup_slot is None or free[slot2] < free[backup_slot]:
                        backup_slot = slot2
                if backup_slot is None:
                    continue  # single-node cluster: nowhere to speculate
                b_start = max(free[backup_slot], detect)
                b_end = b_start + cost
                if b_start >= a.end:
                    continue  # original finishes before the backup could start
                stats.speculative_launched += 1
                won = b_end < a.end
                if won:
                    # Backup wins; the original is killed at the backup's finish.
                    stats.speculative_won += 1
                    attempts.append(_Attempt(task=i, slot=backup_slot, start=b_start, end=b_end,
                                             charge=cost, completes=True, local=True))
                    slot_charge[backup_slot] += cost
                    free[backup_slot] = b_end
                    a.completes = False
                    burned = max(0.0, b_end - a.start)
                    slot_charge[slot] += burned - a.charge
                    a.charge = burned
                    a.end = b_end
                    free[slot] = b_end
                    completion[i] = b_end
                else:
                    # Backup loses; it is killed when the original finishes.
                    burned = a.end - b_start
                    attempts.append(_Attempt(task=i, slot=backup_slot, start=b_start, end=a.end,
                                             charge=burned, completes=False, local=True))
                    slot_charge[backup_slot] += burned
                    free[backup_slot] = a.end
                stats.wasted_cost += burned
                if tracer.enabled:
                    tracer.event(
                        "fault.speculation",
                        phase=phase, task=i, won=won, slowdown=slowdown, wasted_cost=burned,
                    )

        # -- pass 2: node preemption, time-ordered --------------------------
        dead: set[int] = set()
        base_span = max(completion) if n_tasks else 0.0
        kills = sorted(
            ((int(node) % self.n_nodes, float(frac)) for node, frac in node_failures),
            key=lambda kv: kv[1],
        )
        for node, frac in kills:
            if not 0.0 < frac <= 1.0:
                raise ValueError(f"kill time fraction must be in (0, 1], got {frac}")
            if node in dead:
                continue
            if len(dead) + 1 >= self.n_nodes:
                break  # never preempt the last surviving node
            t_kill = frac * base_span
            dead.add(node)
            stats.n_node_failures += 1
            wasted_before = stats.wasted_cost
            tasks_lost_before = stats.n_tasks_lost
            outputs_lost_before = stats.n_map_outputs_lost
            lost: list[int] = []
            for a in attempts:
                if a.slot // per_node != node:
                    continue
                if a.end > t_kill:
                    # In-flight (or queued) when the node went away.
                    burned = max(0.0, t_kill - a.start)
                    slot_charge[a.slot] += burned - a.charge
                    stats.wasted_cost += burned
                    a.charge = burned
                    a.end = min(a.end, max(a.start, t_kill))
                    if a.completes:
                        a.completes = False
                        lost.append(a.task)
                        stats.n_tasks_lost += 1
                elif a.completes and phase == "map":
                    # Completed, but its map output lived on the dead node.
                    a.completes = False
                    lost.append(a.task)
                    stats.n_map_outputs_lost += 1
                    stats.wasted_cost += a.charge
            alive_slots = [s for s in range(n_slots) if s // per_node not in dead]
            for i in sorted(set(lost), key=lambda j: (-costs[j], j)):
                local_nodes = preferred[i] - dead
                slot = min(alive_slots, key=lambda s: (max(free[s], t_kill), s))
                local = not local_nodes or slot // per_node in local_nodes
                re_cost = costs[i] if local else costs[i] * (1.0 + REMOTE_PENALTY)
                start = max(free[slot], t_kill)
                a = _Attempt(task=i, slot=slot, start=start, end=start + re_cost,
                             charge=re_cost, completes=True, local=local)
                slot_charge[slot] += re_cost
                free[slot] = a.end
                attempts.append(a)
                completion[i] = a.end
            if tracer.enabled:
                tracer.event(
                    "fault.node_failure",
                    phase=phase,
                    node=node,
                    kill_time=t_kill,
                    tasks_lost=stats.n_tasks_lost - tasks_lost_before,
                    map_outputs_lost=stats.n_map_outputs_lost - outputs_lost_before,
                    wasted_cost=stats.wasted_cost - wasted_before,
                )

        # The surviving (completing) attempt determines which node each
        # task's output came from and whether it paid the remote read —
        # speculation wins and post-kill re-placements override the
        # original placement.
        assigned = [0] * n_tasks
        for a in attempts:
            if a.completes:
                assigned[a.task] = a.slot // per_node
                stats.n_local_tasks += a.local
        stats.assigned_nodes = assigned
        stats.per_slot_cost = slot_charge
        stats.total_cost = sum(slot_charge)
        stats.makespan = max(completion) if n_tasks else 0.0
        self._emit_phase_event(phase, stats)
        return stats
