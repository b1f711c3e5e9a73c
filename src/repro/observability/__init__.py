"""Observability: tracing, metrics, structured logging, and trace analysis.

The paper's whole evaluation (Sections 5.4-5.6) is per-stage attribution —
time and memory by pipeline stage, collision statistics, and 16/32/64-node
makespans. This package makes every such number a first-class artifact of a
run instead of an ad-hoc measurement:

* :mod:`~repro.observability.trace` — nested spans with wall time and
  explicit parent links, point events, and a process-wide tracer that
  defaults to a zero-overhead no-op;
* :mod:`~repro.observability.metrics` — counters, gauges, and fixed-bucket
  histograms (with quantile estimation) exported with the trace;
* :mod:`~repro.observability.sink` — the JSON-lines trace file (one run,
  one file) and its damage-tolerant reader;
* :mod:`~repro.observability.report` — the Section 5.6 per-stage breakdown
  and the fault ledger, rebuilt from a trace file (``repro trace report``);
* :mod:`~repro.observability.analysis` — the span DAG, wall-clock and
  simulated critical paths, per-node utilization, and parallel efficiency
  (``repro trace critical-path``);
* :mod:`~repro.observability.diff` — two-trace stage, fault and schedule
  deltas (``repro trace diff``);
* :mod:`~repro.observability.logging` — the single place handlers/levels
  for the ``repro`` logger namespace are configured.
"""

from repro.observability.analysis import (
    analyze_trace,
    build_span_tree,
    node_utilization,
    parallel_efficiency,
    phase_critical_path,
    render_critical_path,
    wall_critical_path,
)
from repro.observability.diff import (
    diff_stage_tables,
    diff_traces,
    render_trace_diff,
    stage_table,
)
from repro.observability.logging import configure, configure_logging, get_logger
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    pow2_buckets,
    quantile_from_counts,
    time_buckets,
)
from repro.observability.report import (
    fault_summary,
    render_trace_report,
    shuffle_volume,
    stage_breakdown,
)
from repro.observability.sink import InMemorySink, JsonLinesSink, read_trace
from repro.observability.trace import (
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    trace_to,
    use_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonLinesSink",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "analyze_trace",
    "build_span_tree",
    "configure",
    "configure_logging",
    "diff_stage_tables",
    "diff_traces",
    "fault_summary",
    "get_logger",
    "get_tracer",
    "node_utilization",
    "parallel_efficiency",
    "phase_critical_path",
    "pow2_buckets",
    "quantile_from_counts",
    "read_trace",
    "render_critical_path",
    "render_trace_diff",
    "render_trace_report",
    "set_tracer",
    "shuffle_volume",
    "stage_breakdown",
    "stage_table",
    "time_buckets",
    "trace_to",
    "use_tracer",
    "wall_critical_path",
]
