"""Trace diffing: align two runs stage by stage.

``repro trace diff BASELINE CURRENT`` answers "what changed between these
two runs": per-stage total/self/count deltas, stages that appeared or
vanished, the fault-ledger delta, and the simulated makespan /
critical-path movement. It is a report, not a gate: diffing two traces of
the program is how a change shows which layer it moved.

Stages are keyed by span name, refined with the span's ``phase`` attribute
when present (``mr.schedule:map`` vs ``mr.schedule:reduce``), so a
reduce-side regression is not averaged away by a healthy map side.
"""

from __future__ import annotations

from repro.observability.analysis import analyze_trace
from repro.observability.report import _table, fault_summary, stage_breakdown

__all__ = [
    "stage_table",
    "diff_stage_tables",
    "diff_traces",
    "render_trace_diff",
]


def stage_table(records: list[dict]) -> dict:
    """Per-stage breakdown keyed by diff-stable stage names.

    Same numbers as :func:`~repro.observability.report.stage_breakdown`,
    but span names carrying a ``phase`` attribute are split into
    ``name:phase`` keys so the two sides of a diff align at the phase
    level.
    """
    refined = []
    for r in records:
        if r.get("type") == "span":
            phase = (r.get("attributes") or {}).get("phase")
            if phase is not None:
                r = dict(r, name=f"{r.get('name')}:{phase}")
        refined.append(r)
    return stage_breakdown(refined)


def _pct(base: float, cur: float) -> float | None:
    """Percent change from ``base`` to ``cur`` (``None`` when base is 0)."""
    if base > 0.0:
        return 100.0 * (cur - base) / base
    return None


def diff_stage_tables(base: dict, cur: dict) -> dict:
    """Align two stage tables by stage key.

    Returns ``{"common": {...}, "new": {...}, "vanished": {...}}`` where each
    common entry carries base/current/delta/percent for both self and total
    time plus the call-count pair. ``new``/``vanished`` hold the raw
    one-sided entries.
    """
    common: dict = {}
    for name in sorted(set(base) & set(cur)):
        b, c = base[name], cur[name]
        common[name] = {
            "base_self": b["self"],
            "cur_self": c["self"],
            "delta_self": c["self"] - b["self"],
            "pct_self": _pct(b["self"], c["self"]),
            "base_total": b["total"],
            "cur_total": c["total"],
            "delta_total": c["total"] - b["total"],
            "pct_total": _pct(b["total"], c["total"]),
            "base_count": b["count"],
            "cur_count": c["count"],
        }
    return {
        "common": common,
        "new": {name: dict(cur[name]) for name in sorted(set(cur) - set(base))},
        "vanished": {name: dict(base[name]) for name in sorted(set(base) - set(cur))},
    }


def diff_traces(base_records: list[dict], cur_records: list[dict]) -> dict:
    """The full two-trace diff: stages, faults, and schedule summary."""
    base_faults = fault_summary(base_records)
    cur_faults = fault_summary(cur_records)
    fault_kinds = sorted(set(base_faults["by_kind"]) | set(cur_faults["by_kind"]))
    base_analysis = analyze_trace(base_records)
    cur_analysis = analyze_trace(cur_records)

    def summary(analysis: dict) -> dict:
        return {
            "wall_time": analysis["wall_time"],
            "simulated_makespan": analysis["simulated_makespan"],
            "critical_path_length": analysis["critical_path_length"],
            "parallel_efficiency": analysis["parallel_efficiency"],
        }

    return {
        "stages": diff_stage_tables(stage_table(base_records), stage_table(cur_records)),
        "faults": {
            "by_kind": {
                kind: {
                    "base": base_faults["by_kind"].get(kind, 0),
                    "cur": cur_faults["by_kind"].get(kind, 0),
                }
                for kind in fault_kinds
            },
            "base_wasted": base_faults["wasted_cost"],
            "cur_wasted": cur_faults["wasted_cost"],
        },
        "base": summary(base_analysis),
        "cur": summary(cur_analysis),
    }


def _fmt_pct(pct: float | None) -> str:
    return "new" if pct is None else f"{pct:+.1f}%"


def render_trace_diff(diff: dict) -> str:
    """Human-readable diff report (``repro trace diff``).

    Common stages are ranked by absolute self-time delta; new and vanished
    stages, fault-ledger deltas, and the schedule summary follow.
    """
    lines: list[str] = []
    stages = diff["stages"]

    lines.append("== Stage deltas ==")
    if stages["common"]:
        ranked = sorted(stages["common"].items(), key=lambda kv: -abs(kv[1]["delta_self"]))
        rows = [
            [
                name,
                f"{e['base_self']:.6f}",
                f"{e['cur_self']:.6f}",
                f"{e['delta_self']:+.6f}",
                _fmt_pct(e["pct_self"]),
                f"{e['base_count']}→{e['cur_count']}",
            ]
            for name, e in ranked
        ]
        lines.extend(
            _table(["stage", "base self", "cur self", "delta", "delta%", "calls"], rows)
        )
    else:
        lines.append("  (no stages in common)")
    for label, key in (("new in current", "new"), ("vanished from baseline", "vanished")):
        if stages[key]:
            lines.append(f"  {label}:")
            for name, e in stages[key].items():
                lines.append(f"    {name}  self={e['self']:.6f}s  calls={e['count']}")
    lines.append("")

    lines.append("== Fault deltas ==")
    faults = diff["faults"]
    changed = {
        kind: pair for kind, pair in faults["by_kind"].items() if pair["base"] != pair["cur"]
    }
    if changed or faults["by_kind"]:
        for kind, pair in sorted(faults["by_kind"].items()):
            marker = "" if pair["base"] == pair["cur"] else "  *"
            lines.append(f"  {kind}: {pair['base']} → {pair['cur']}{marker}")
        lines.append(
            f"  wasted cost: {faults['base_wasted']:.4f} → {faults['cur_wasted']:.4f}"
        )
    else:
        lines.append("  no fault events in either run")
    lines.append("")

    lines.append("== Summary ==")
    base, cur = diff["base"], diff["cur"]
    for label, key in (
        ("wall time", "wall_time"),
        ("simulated makespan", "simulated_makespan"),
        ("critical path", "critical_path_length"),
    ):
        pct = _fmt_pct(_pct(base[key], cur[key]))
        lines.append(f"  {label}: {base[key]:.6f} → {cur[key]:.6f}  ({pct})")
    if base["parallel_efficiency"] is not None or cur["parallel_efficiency"] is not None:
        b = base["parallel_efficiency"]
        c = cur["parallel_efficiency"]
        lines.append(
            "  parallel efficiency: "
            + ("-" if b is None else f"{100.0 * b:.1f}%")
            + " → "
            + ("-" if c is None else f"{100.0 * c:.1f}%")
        )
    return "\n".join(lines) + "\n"
