"""Trace-analysis plane: the span DAG, critical paths, and utilization.

The raw trace (see :mod:`repro.observability.sink`) is a flat list of span
and event records; :mod:`~repro.observability.report` aggregates it by stage
name. This module rebuilds the *structure* the paper's Section 5.6 questions
need — "which stage bounds the run", "which node bounds each phase", "how
close to the hardware are we":

* :func:`build_span_tree` reconstructs the span DAG from parent links,
  tolerating the damage crashed runs leave behind (open spans, spans whose
  parents never closed);
* :func:`wall_critical_path` drills from the longest root span down the
  longest-child chain — the wall-clock answer to "where did the time go";
* :func:`phase_critical_path` reads the ``cluster.phase`` events the
  simulated cluster emits and attributes each phase's *simulated* makespan:
  the critical (most-loaded-slot) time, the bottleneck node, and the
  straggler task that bounded the phase;
* :func:`node_utilization` and :func:`parallel_efficiency` fold the same
  events into per-node busy/idle time and one scalar efficiency;
* :func:`analyze_trace` bundles all of the above into the dict that
  ``repro trace critical-path``, ``repro trace diff`` and
  ``render_trace_report`` consume.

Invariant (asserted by the chaos suite): a phase's critical-path length is
the busy time of its most loaded slot, so it never exceeds the phase
makespan — and equals it exactly on gap-free schedules (every clean run;
fault re-placements introduce idle gaps, so chaos runs may fall short).
"""

from __future__ import annotations

import re

from repro.observability.metrics import quantile_from_counts

__all__ = [
    "SpanNode",
    "SpanTree",
    "build_span_tree",
    "wall_critical_path",
    "phase_critical_path",
    "node_utilization",
    "parallel_efficiency",
    "analyze_trace",
    "render_critical_path",
]

_TASK_INDEX = re.compile(r"(\d+)$")


class SpanNode:
    """One span in the reconstructed DAG.

    ``duration`` is 0.0 for spans left open by a crashed run (their end was
    never recorded, so they contribute structure but no time); ``self_time``
    is duration minus child durations, floored at zero.
    """

    __slots__ = ("record", "children", "orphan")

    def __init__(self, record: dict):
        self.record = record
        self.children: list[SpanNode] = []
        self.orphan = False  # parent_id set but the parent span never closed

    @property
    def name(self) -> str:
        return self.record.get("name", "")

    @property
    def span_id(self):
        return self.record.get("span_id")

    @property
    def attributes(self) -> dict:
        return self.record.get("attributes", {}) or {}

    @property
    def open(self) -> bool:
        return self.record.get("end") is None

    @property
    def duration(self) -> float:
        d = self.record.get("duration")
        return float(d) if d is not None else 0.0

    @property
    def self_time(self) -> float:
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanNode({self.name!r}, id={self.span_id}, children={len(self.children)})"


class SpanTree:
    """The reconstructed span forest plus its bookkeeping indexes."""

    def __init__(self, roots, by_id, orphans, open_spans):
        self.roots: list[SpanNode] = roots
        self.by_id: dict = by_id
        self.orphans: list[SpanNode] = orphans  # adopted as roots
        self.open_spans: list[SpanNode] = open_spans


def build_span_tree(records: list[dict]) -> SpanTree:
    """Rebuild the span forest from one trace's records.

    Tolerant by design — the traces worth diagnosing are the damaged ones:

    * spans still open at crash time (``end is None``) join the tree with
      zero duration;
    * spans whose ``parent_id`` matches no recorded span (the parent was
      open when the writer died) are adopted as roots and flagged
      ``orphan``;
    * children are ordered by ``seq`` (open order).
    """
    by_id: dict = {}
    spans: list[SpanNode] = []
    for r in records:
        if r.get("type") != "span" or r.get("span_id") is None:
            continue
        node = SpanNode(r)
        spans.append(node)
        by_id[r["span_id"]] = node
    roots: list[SpanNode] = []
    orphans: list[SpanNode] = []
    for node in sorted(spans, key=lambda n: n.record.get("seq", 0)):
        parent_id = node.record.get("parent_id")
        if parent_id is None:
            roots.append(node)
        elif parent_id in by_id:
            by_id[parent_id].children.append(node)
        else:
            node.orphan = True
            orphans.append(node)
            roots.append(node)
    open_spans = [n for n in spans if n.open]
    return SpanTree(roots, by_id, orphans, open_spans)


def wall_critical_path(records: list[dict]) -> list[dict]:
    """The wall-clock drill-down: longest root, then longest child, etc.

    The tracer is single-threaded, so sibling spans never overlap and the
    chain of largest spans *is* the wall-clock critical path. Each level
    reports its duration, its self time, and its share of the chain's root.
    Returns ``[]`` for traces with no spans.
    """
    tree = build_span_tree(records)
    if not tree.roots:
        return []
    node = max(tree.roots, key=lambda n: n.duration)
    total = node.duration
    path: list[dict] = []
    while node is not None:
        path.append(
            {
                "name": node.name,
                "duration": node.duration,
                "self": node.self_time,
                "share": node.duration / total if total > 0 else 0.0,
                "open": node.open,
            }
        )
        node = max(node.children, key=lambda n: n.duration, default=None)
    return path


def _task_spans_by_index(job_node: SpanNode | None, span_name: str) -> list[SpanNode]:
    """The job's task spans in submission order (``map-0``, ``map-1``, ...)."""
    if job_node is None:
        return []
    tasks = [c for c in job_node.children if c.name == span_name]

    def index(node: SpanNode):
        m = _TASK_INDEX.search(str(node.attributes.get("task", "")))
        return int(m.group(1)) if m else 0

    return sorted(tasks, key=index)


def phase_critical_path(records: list[dict]) -> list[dict]:
    """Attribute every scheduled phase's simulated makespan.

    One entry per ``cluster.phase`` event, in trace order. ``critical`` is
    the busy time of the phase's most loaded slot (``max_slot_cost``;
    older traces without the attribute fall back to the makespan), the
    quantity the chaos suite pins against the makespan. ``bottleneck_node``
    carries the largest per-node cost, and ``straggler`` names the
    highest-cost task of the phase with the node that executed it — the
    task to blame when the phase is skew-bound.
    """
    tree = build_span_tree(records)
    phases: list[dict] = []
    for r in records:
        if r.get("type") != "event" or r.get("name") != "cluster.phase":
            continue
        attrs = r.get("attributes", {}) or {}
        makespan = float(attrs.get("makespan", 0.0) or 0.0)
        critical = attrs.get("max_slot_cost")
        critical = makespan if critical is None else float(critical)
        per_node = list(attrs.get("per_node_cost", []) or [])
        bottleneck = max(range(len(per_node)), key=per_node.__getitem__) if per_node else None

        # The event hangs off the mr.schedule span whose parent is the
        # mr.job span owning the phase's task spans.
        schedule = tree.by_id.get(r.get("parent_id"))
        job_node = None
        if schedule is not None:
            job_node = tree.by_id.get(schedule.record.get("parent_id"))
        phase = attrs.get("phase", "map")
        task_span_name = "mr.map_task" if phase == "map" else "mr.reduce_task"
        tasks = _task_spans_by_index(job_node, task_span_name)
        task_nodes = list(attrs.get("task_nodes", []) or [])
        straggler = None
        if tasks:
            worst = max(
                range(len(tasks)),
                key=lambda i: float(tasks[i].attributes.get("cost", 0.0) or 0.0),
            )
            straggler = {
                "task": tasks[worst].attributes.get("task", f"{phase}-{worst}"),
                "cost": float(tasks[worst].attributes.get("cost", 0.0) or 0.0),
                "node": task_nodes[worst] if worst < len(task_nodes) else None,
            }
        phases.append(
            {
                "job": job_node.attributes.get("job") if job_node is not None else None,
                "phase": phase,
                "n_nodes": int(attrs.get("n_nodes", 0) or 0),
                "n_slots": int(attrs.get("n_slots", 0) or 0),
                "n_tasks": int(attrs.get("n_tasks", 0) or 0),
                "makespan": makespan,
                "critical": critical,
                "total_cost": float(attrs.get("total_cost", 0.0) or 0.0),
                "utilization": float(attrs.get("utilization", 0.0) or 0.0),
                "bottleneck_node": bottleneck,
                "bottleneck_node_cost": per_node[bottleneck] if bottleneck is not None else 0.0,
                "per_node_cost": per_node,
                "straggler": straggler,
                "wasted_cost": float(attrs.get("wasted_cost", 0.0) or 0.0),
            }
        )
    return phases


def node_utilization(phases: list[dict]) -> dict[int, dict]:
    """Per-node busy time and utilization across all scheduled phases.

    Capacity per node and phase is ``makespan × slots_per_node`` (one slot
    when the trace predates the ``n_slots`` attribute); ``idle`` is capacity
    minus busy. Nodes are keyed by their id in the simulated cluster.
    """
    nodes: dict[int, dict] = {}
    for p in phases:
        n_nodes = p["n_nodes"] or len(p["per_node_cost"])
        if not n_nodes:
            continue
        slots_per_node = (p["n_slots"] / n_nodes) if p["n_slots"] else 1.0
        for node, busy in enumerate(p["per_node_cost"]):
            entry = nodes.setdefault(node, {"busy": 0.0, "capacity": 0.0})
            entry["busy"] += busy
            entry["capacity"] += p["makespan"] * slots_per_node
    for entry in nodes.values():
        entry["idle"] = max(0.0, entry["capacity"] - entry["busy"])
        entry["utilization"] = entry["busy"] / entry["capacity"] if entry["capacity"] > 0 else 0.0
    return nodes


def parallel_efficiency(phases: list[dict]) -> float | None:
    """Aggregate useful-work fraction: Σ total_cost / Σ (makespan × slots).

    1.0 means every slot was busy for every phase's whole makespan; lower
    values quantify load imbalance plus fault-burned slack. ``None`` when
    the trace contains no scheduled phases (a purely local run).
    """
    capacity = sum(p["makespan"] * (p["n_slots"] or p["n_nodes"] or 1) for p in phases)
    if capacity <= 0.0:
        return None
    return min(1.0, sum(p["total_cost"] for p in phases) / capacity)


def _task_duration_quantiles(records: list[dict]) -> dict | None:
    """p50/p95/p99 of task durations, preferring the exported histogram.

    Traced engines observe every task body's wall time into the
    ``mr.task_seconds`` histogram; when a trace predates it, fall back to
    the exact span durations.
    """
    for r in reversed(records):
        if r.get("type") == "metrics":
            hist = r.get("data", {}).get("histograms", {}).get("mr.task_seconds")
            if hist and hist.get("count"):
                return {
                    "count": hist["count"],
                    "p50": quantile_from_counts(
                        hist["buckets"], hist["counts"], 0.50,
                        minimum=hist.get("min"), maximum=hist.get("max"),
                    ),
                    "p95": quantile_from_counts(
                        hist["buckets"], hist["counts"], 0.95,
                        minimum=hist.get("min"), maximum=hist.get("max"),
                    ),
                    "p99": quantile_from_counts(
                        hist["buckets"], hist["counts"], 0.99,
                        minimum=hist.get("min"), maximum=hist.get("max"),
                    ),
                    "source": "histogram",
                }
            break
    durations = sorted(
        float(r["duration"])
        for r in records
        if r.get("type") == "span"
        and r.get("name") in ("mr.map_task", "mr.reduce_task")
        and r.get("duration") is not None
    )
    if not durations:
        return None

    def exact(q: float) -> float:
        return durations[min(len(durations) - 1, int(q * len(durations)))]

    return {
        "count": len(durations),
        "p50": exact(0.50),
        "p95": exact(0.95),
        "p99": exact(0.99),
        "source": "spans",
    }


def analyze_trace(records: list[dict]) -> dict:
    """The full analysis bundle for one trace.

    Keys: ``wall_time`` (closed-root wall clock), ``drilldown`` (the
    wall-clock critical path), ``phases`` + ``critical_path_length`` +
    ``simulated_makespan`` (the simulated schedule), ``parallel_efficiency``,
    ``nodes`` (busy/idle per node), ``task_quantiles``, and the trace-health
    counters ``open_spans`` / ``orphan_spans`` / ``skipped_lines``.
    """
    tree = build_span_tree(records)
    phases = phase_critical_path(records)
    skipped = sum(
        int(r.get("skipped", 0)) for r in records if r.get("type") == "trace_warning"
    )
    wall = sum(n.duration for n in tree.roots if not n.open)
    return {
        "wall_time": wall,
        "drilldown": wall_critical_path(records),
        "phases": phases,
        "critical_path_length": sum(p["critical"] for p in phases),
        "simulated_makespan": sum(p["makespan"] for p in phases),
        "parallel_efficiency": parallel_efficiency(phases),
        "nodes": node_utilization(phases),
        "task_quantiles": _task_duration_quantiles(records),
        "open_spans": len(tree.open_spans),
        "orphan_spans": len(tree.orphans),
        "skipped_lines": skipped,
    }


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def render_critical_path(records: list[dict]) -> str:
    """Human-readable critical-path report (``repro trace critical-path``)."""
    from repro.observability.report import _table  # shared fixed-width renderer

    analysis = analyze_trace(records)
    lines: list[str] = []

    lines.append("== Wall-clock critical path ==")
    if analysis["drilldown"]:
        rows = [
            [
                ("  " * depth) + (step["name"] or "?") + (" (open)" if step["open"] else ""),
                _fmt(step["duration"]),
                _fmt(step["self"]),
                f"{100.0 * step['share']:.1f}%",
            ]
            for depth, step in enumerate(analysis["drilldown"])
        ]
        lines.extend(_table(["span", "duration s", "self s", "share"], rows))
    else:
        lines.append("  (no spans in trace)")
    lines.append("")

    lines.append("== Simulated phase critical path ==")
    if analysis["phases"]:
        rows = []
        for p in analysis["phases"]:
            straggler = p["straggler"]
            rows.append(
                [
                    p["job"] or "?",
                    p["phase"],
                    p["n_tasks"],
                    _fmt(p["makespan"]),
                    _fmt(p["critical"]),
                    "-" if p["bottleneck_node"] is None else f"n{p['bottleneck_node']}",
                    "-"
                    if straggler is None
                    else f"{straggler['task']}"
                    + ("" if straggler["node"] is None else f"@n{straggler['node']}"),
                ]
            )
        lines.extend(
            _table(
                ["job", "phase", "tasks", "makespan", "critical", "bottleneck", "straggler"],
                rows,
            )
        )
        lines.append(
            f"  critical path {_fmt(analysis['critical_path_length'])} of "
            f"makespan {_fmt(analysis['simulated_makespan'])}"
            + (
                f"; parallel efficiency {100.0 * analysis['parallel_efficiency']:.1f}%"
                if analysis["parallel_efficiency"] is not None
                else ""
            )
        )
    else:
        lines.append("  (no scheduled phases in trace — local run)")
    lines.append("")

    lines.append("== Node utilization ==")
    if analysis["nodes"]:
        rows = [
            [
                f"n{node}",
                _fmt(entry["busy"]),
                _fmt(entry["idle"]),
                f"{100.0 * entry['utilization']:.1f}%",
            ]
            for node, entry in sorted(analysis["nodes"].items())
        ]
        lines.extend(_table(["node", "busy", "idle", "utilization"], rows))
    else:
        lines.append("  (no per-node attribution in trace)")

    quantiles = analysis["task_quantiles"]
    if quantiles is not None:
        lines.append("")
        lines.append(
            f"task durations ({quantiles['count']} tasks, {quantiles['source']}): "
            f"p50={quantiles['p50']:.6f}s p95={quantiles['p95']:.6f}s "
            f"p99={quantiles['p99']:.6f}s"
        )
    health = []
    if analysis["open_spans"]:
        health.append(f"{analysis['open_spans']} span(s) left open")
    if analysis["orphan_spans"]:
        health.append(f"{analysis['orphan_spans']} orphan span(s)")
    if analysis["skipped_lines"]:
        health.append(f"{analysis['skipped_lines']} malformed line(s) skipped")
    if health:
        lines.append("")
        lines.append("trace health: " + ", ".join(health))
    return "\n".join(lines) + "\n"
