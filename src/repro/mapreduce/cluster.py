"""Simulated cluster: nodes, slots, and the makespan cost model.

The paper's elasticity result (Table 3) is a *scheduling* property: DASC's
buckets are independent work items, so doubling the node count roughly
halves the wall clock while memory per node and accuracy stay flat. This
module reproduces that mechanism: tasks carry abstract costs, nodes expose
map/reduce slots (Table 2: 4 map + 2 reduce per tasktracker), and one
longest-processing-time (LPT) list scheduler,
:meth:`SimulatedCluster.simulate_phase`, assigns every phase's tasks to
slots, data-locally for map tasks on HDFS splits. The simulated makespan
is the maximum finishing time over slots.
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
    # Tasks that paid no remote-read penalty (ran on a node holding their
    # split, or had no placement to honour).
    n_local_tasks: int = 0
    real_elapsed: float = 0.0  # measured wall-clock of the phase's compute
    # Node (not slot) that ran each task, indexed by the task's position in
    # the submitted task list — what lets the trace analysis plane join
    # `mr.map_task`/`mr.reduce_task` spans to nodes.
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

    ``cost`` is the work the task charges to its slot when it reads its
    split locally; ``preferred_nodes`` are the nodes holding the split
    (empty: run anywhere at nominal cost).
    """

    cost: float
    preferred_nodes: tuple = ()

    def __post_init__(self):
        if self.cost < 0:
            raise ValueError("task costs must be non-negative")


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
        — is returned for the caller to charge to the makespan.
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
        phase's critical path, equal to the makespan because every schedule
        is gap-free), ``n_slots``, and ``task_nodes`` (the node that ran
        each task, in task-submission order).
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
        )

    # -- the scheduler -------------------------------------------------------

    def simulate_phase(self, tasks, *, phase: str = "map") -> TaskStats:
        """Schedule one phase's tasks on the cluster: its only scheduler.

        ``tasks`` is a list of :class:`PhaseTask`. Tasks are placed longest
        first (LPT, a 4/3-optimal makespan heuristic and a good model of
        Hadoop's greedy task assignment), each on the least-loaded slot,
        ties going to the lowest slot. A task with ``preferred_nodes`` (its
        split's replicas) takes a data-local slot whenever that finishes no
        later than the best remote slot *including* the
        :data:`REMOTE_PENALTY` a remote read charges — the tradeoff Hadoop's
        scheduler makes.

        Task *results* are computed deterministically by the engine, so this
        is pure cost accounting. Every schedule is gap-free: a slot's busy
        time is its finishing time, and the makespan is the largest.
        """
        if phase not in ("map", "reduce"):
            raise ValueError(f"phase must be 'map' or 'reduce', got {phase!r}")
        per_node = self.node.map_slots if phase == "map" else self.node.reduce_slots
        n_slots = self.n_nodes * per_node
        n_tasks = len(tasks)
        costs = [float(t.cost) for t in tasks]
        preferred = [frozenset(int(p) % self.n_nodes for p in t.preferred_nodes) for t in tasks]
        free = [0.0] * n_slots
        assigned = [0] * n_tasks
        n_local = 0
        # A stable reverse sort keeps equal costs in submission order.
        for i in sorted(range(n_tasks), key=costs.__getitem__, reverse=True):
            cost, local_nodes = costs[i], preferred[i]
            best_local = best_remote = None
            for slot in range(n_slots):
                if local_nodes and slot // per_node in local_nodes:
                    if best_local is None or free[slot] < free[best_local]:
                        best_local = slot
                elif best_remote is None or free[slot] < free[best_remote]:
                    best_remote = slot
            remote_cost = cost * (1.0 + REMOTE_PENALTY) if local_nodes else cost
            use_local = best_local is not None and (
                best_remote is None or free[best_local] + cost <= free[best_remote] + remote_cost
            )
            slot = best_local if use_local else best_remote
            free[slot] += cost if use_local else remote_cost
            assigned[i] = slot // per_node
            n_local += use_local or not local_nodes
        stats = TaskStats(
            n_tasks=n_tasks,
            total_cost=sum(free),
            makespan=max(free),
            per_slot_cost=free,
            n_local_tasks=n_local,
            assigned_nodes=assigned,
        )
        self._emit_phase_event(phase, stats)
        return stats
