"""Trace-file analysis: the Section 5.6 per-stage view, rebuilt offline.

Given the records of one JSON-lines trace (see
:mod:`repro.observability.sink`), these helpers reconstruct the per-stage
wall-time breakdown the paper reports in Section 5.6 / Figure 6(a), plus a
fault ledger itemizing every storage retry, re-executed checkpoint step,
label repair and resize with its wasted time — the audit trail for the
recovery machinery.
``repro trace report`` is a thin CLI wrapper over :func:`render_trace_report`.
"""

from __future__ import annotations

from repro.observability.metrics import quantile_from_counts

__all__ = ["stage_breakdown", "fault_summary", "shuffle_volume", "render_trace_report"]


def _spans(records: list[dict]) -> list[dict]:
    return [r for r in records if r.get("type") == "span" and r.get("duration") is not None]


def stage_breakdown(records: list[dict]) -> dict:
    """Aggregate spans by name into the per-stage table.

    Returns ``{name: {"count", "total", "self", "mean", "share"}}`` where
    ``total`` sums the span durations, ``self`` excludes time covered by
    child spans (so nested instrumentation does not double-count), and
    ``share`` is ``self`` over the run wall time. The run wall time is the
    sum of root-span durations (falling back to the overall start→end
    envelope for truncated traces with no closed roots).
    """
    spans = _spans(records)
    child_time: dict[int, float] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + s["duration"]

    wall = sum(s["duration"] for s in spans if s.get("parent_id") is None)
    if wall <= 0.0 and spans:
        wall = max(s["end"] for s in spans) - min(s["start"] for s in spans)

    out: dict = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"count": 0, "total": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["total"] += s["duration"]
        entry["self"] += max(0.0, s["duration"] - child_time.get(s["span_id"], 0.0))
    for entry in out.values():
        entry["mean"] = entry["total"] / entry["count"]
        entry["share"] = entry["self"] / wall if wall > 0 else 0.0
    return out


def fault_summary(records: list[dict]) -> dict:
    """Itemize fault events and total their wasted time.

    Every ``fault.*`` event (``fault.checkpoint_reexecuted`` when a damaged
    checkpoint's step re-runs, ``fault.label_repair`` when the driver
    repairs unlabelled points), every ``storage.*`` event (retries with
    their backoff time, corruption detections, quarantines), and every
    ``autoscale.*`` event (resize decisions, cold starts, decommission
    drains) appears in ``items`` verbatim; ``wasted_cost`` sums whatever
    cost each event reports as thrown-away work — for a re-executed step
    its makespan, for a storage retry the backoff delay it burned, for a
    scale-up the cold-start latency, for a drain the block
    re-replication time.
    """
    items = [
        r
        for r in records
        if r.get("type") == "event"
        and str(r.get("name", "")).startswith(("fault.", "storage.", "autoscale."))
    ]
    by_kind: dict[str, int] = {}
    wasted = 0.0
    for ev in items:
        by_kind[ev["name"]] = by_kind.get(ev["name"], 0) + 1
        wasted += float(ev.get("attributes", {}).get("wasted_cost", 0.0) or 0.0)
    return {"items": items, "by_kind": by_kind, "wasted_cost": wasted}


def shuffle_volume(records: list[dict]) -> list[dict]:
    """Per-job shuffle volume and partition skew.

    One entry per ``mr.shuffle`` span that carries the volume attributes
    (``partition_records``, ``bytes``): the owning job's name, partition
    count, total/max records, approximate bytes, and ``skew`` — the ratio
    of the largest partition to the mean, the number that tells you
    whether a slow reduce phase is data skew or compute.
    """
    by_id = {
        r["span_id"]: r
        for r in records
        if r.get("type") == "span" and r.get("span_id") is not None
    }
    out: list[dict] = []
    for r in records:
        if r.get("type") != "span" or r.get("name") != "mr.shuffle":
            continue
        attrs = r.get("attributes", {}) or {}
        partition_records = attrs.get("partition_records")
        if partition_records is None:
            continue
        parent = by_id.get(r.get("parent_id"))
        job = (parent.get("attributes", {}) or {}).get("job") if parent else None
        counts = [int(c) for c in partition_records]
        total = sum(counts)
        mean = total / len(counts) if counts else 0.0
        out.append(
            {
                "job": job,
                "n_partitions": len(counts),
                "records": total,
                "max_partition": max(counts, default=0),
                "bytes": int(attrs.get("bytes", 0) or 0),
                "skew": (max(counts) / mean) if counts and mean > 0 else 0.0,
            }
        )
    return out


def _table(header: list[str], rows: list[list]) -> list[str]:
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def render_trace_report(records: list[dict], *, top: int | None = None) -> str:
    """Render a trace as the human-readable per-stage report.

    Sections: run metadata, the stage table (sorted by self time, optionally
    truncated to ``top`` rows), task-duration percentiles, shuffle volume,
    the simulated critical path, the fault ledger, and the exported
    metrics. A lenient :func:`~repro.observability.sink.read_trace` pass
    that skipped malformed lines is flagged up front.
    """
    from repro.observability.analysis import analyze_trace

    lines: list[str] = []

    skipped = sum(
        int(r.get("skipped", 0)) for r in records if r.get("type") == "trace_warning"
    )
    if skipped:
        lines.append(
            f"!! warning: {skipped} malformed trace line(s) skipped while reading "
            "(truncated or corrupt file?)"
        )
        lines.append("")

    metas = [r for r in records if r.get("type") == "meta"]
    if metas:
        lines.append("== Run ==")
        for meta in metas:
            attrs = ", ".join(f"{k}={v}" for k, v in sorted(meta.get("attributes", {}).items()))
            lines.append(f"  {attrs}" if attrs else "  (no metadata)")
        lines.append("")

    stages = stage_breakdown(records)
    lines.append("== Stage breakdown ==")
    if stages:
        ranked = sorted(stages.items(), key=lambda kv: -kv[1]["self"])
        dropped = 0
        if top is not None and top < len(ranked):
            dropped = len(ranked) - top
            ranked = ranked[:top]
        rows = [
            [
                name,
                e["count"],
                f"{e['total']:.6f}",
                f"{e['self']:.6f}",
                f"{100.0 * e['share']:.1f}%",
            ]
            for name, e in ranked
        ]
        lines.extend(_table(["stage", "calls", "total s", "self s", "share"], rows))
        if dropped:
            lines.append(f"  ... {dropped} more stage(s); raise --top to see them")
    else:
        lines.append("  (no closed spans in trace)")
    lines.append("")

    analysis = analyze_trace(records)

    quantiles = analysis["task_quantiles"]
    if quantiles is not None:
        lines.append("== Task durations ==")
        lines.append(
            f"  {quantiles['count']} tasks ({quantiles['source']}): "
            f"p50={quantiles['p50']:.6f}s  p95={quantiles['p95']:.6f}s  "
            f"p99={quantiles['p99']:.6f}s"
        )
        lines.append("")

    shuffles = shuffle_volume(records)
    if shuffles:
        lines.append("== Shuffle volume ==")
        rows = [
            [
                s["job"] or "?",
                s["n_partitions"],
                s["records"],
                s["max_partition"],
                f"{s['skew']:.2f}x",
                s["bytes"],
            ]
            for s in shuffles
        ]
        lines.extend(
            _table(
                ["job", "partitions", "records", "max part", "skew", "~bytes"], rows
            )
        )
        lines.append("")

    if analysis["phases"]:
        lines.append("== Critical path (simulated) ==")
        for p in analysis["phases"]:
            straggler = p["straggler"]
            detail = (
                "-"
                if straggler is None
                else f"{straggler['task']}"
                + ("" if straggler["node"] is None else f"@n{straggler['node']}")
            )
            job = p["job"] or "?"
            lines.append(
                f"  {job}/{p['phase']}: makespan={p['makespan']:.6f} "
                f"critical={p['critical']:.6f} straggler={detail}"
            )
        lines.append(
            f"  total: critical path {analysis['critical_path_length']:.6f} of "
            f"makespan {analysis['simulated_makespan']:.6f}"
            + (
                f"; parallel efficiency {100.0 * analysis['parallel_efficiency']:.1f}%"
                if analysis["parallel_efficiency"] is not None
                else ""
            )
        )
        lines.append("")

    faults = fault_summary(records)
    lines.append("== Faults ==")
    if faults["items"]:
        rows = []
        for ev in faults["items"]:
            attrs = ev.get("attributes", {})
            wasted = float(attrs.get("wasted_cost", 0.0) or 0.0)
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(attrs.items()) if k != "wasted_cost"
            )
            rows.append([ev["name"], f"{wasted:.4f}", detail])
        lines.extend(_table(["event", "wasted", "detail"], rows))
        counts = ", ".join(f"{k}×{v}" for k, v in sorted(faults["by_kind"].items()))
        lines.append(f"  total wasted cost: {faults['wasted_cost']:.4f}  ({counts})")
    else:
        lines.append("  clean run: no fault events")
    lines.append("")

    metric_records = [r for r in records if r.get("type") == "metrics"]
    lines.append("== Metrics ==")
    if metric_records:
        data = metric_records[-1].get("data", {})
        for name, value in sorted(data.get("counters", {}).items()):
            lines.append(f"  counter    {name} = {value}")
        for name, value in sorted(data.get("gauges", {}).items()):
            lines.append(f"  gauge      {name} = {value}")
        for name, hist in sorted(data.get("histograms", {}).items()):
            mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
            quantile_note = ""
            if hist["count"]:
                qs = [
                    quantile_from_counts(
                        hist["buckets"],
                        hist["counts"],
                        q,
                        minimum=hist.get("min"),
                        maximum=hist.get("max"),
                    )
                    for q in (0.50, 0.95, 0.99)
                ]
                quantile_note = (
                    f" p50={qs[0]:.4g} p95={qs[1]:.4g} p99={qs[2]:.4g}"
                )
            lines.append(
                f"  histogram  {name}: count={hist['count']} mean={mean:.2f} "
                f"min={hist['min']} max={hist['max']}{quantile_note}"
            )
            occupied = [
                (bound, c)
                for bound, c in zip(list(hist["buckets"]) + ["inf"], hist["counts"])
                if c
            ]
            if occupied:
                lines.append(
                    "             "
                    + "  ".join(f"<={bound}: {c}" for bound, c in occupied)
                )
    else:
        lines.append("  (no metrics record in trace)")
    return "\n".join(lines) + "\n"
