"""Trace-analysis plane tests: span DAG, critical paths, and quantiles.

Pins the acceptance contract of ``repro.observability.analysis``: the span
tree survives the damage crashed runs leave behind (open spans, orphaned
parents), the simulated per-phase critical path never exceeds the phase
makespan — and equals it exactly on clean serial runs — the task→node join
is consistent with the scheduler, and the bucketed-quantile estimator is
sane at its edges. Also covers the lenient trace reader and the
pathological-trace behavior of ``stage_breakdown``.
"""

import io
import json

import numpy as np
import pytest

from repro.core import DASCConfig
from repro.dasc_mr import DistributedDASC
from repro.mapreduce import ElasticMapReduce, FaultyEngine
from repro.mapreduce.faults import FaultPolicy, NodeFailurePolicy, StragglerPolicy
from repro.observability import (
    Histogram,
    analyze_trace,
    build_span_tree,
    node_utilization,
    parallel_efficiency,
    phase_critical_path,
    quantile_from_counts,
    read_trace,
    render_critical_path,
    render_trace_report,
    shuffle_volume,
    stage_breakdown,
    time_buckets,
    trace_to,
    wall_critical_path,
)


def span(name, span_id, parent_id, start, end, seq, **attrs):
    return {
        "type": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "seq": seq,
        "start": start,
        "end": end,
        "duration": (end - start) if end is not None else None,
        "attributes": attrs,
    }


class ChaosEMR(ElasticMapReduce):
    """EMR whose provisioned flows run on a fault-injecting engine."""

    def __init__(self, **fault_kwargs):
        super().__init__()
        self._fault_kwargs = fault_kwargs

    def create_job_flow(self, n_nodes, *, split_size=1024, checkpoint=True):
        flow_id, flow = super().create_job_flow(
            n_nodes, split_size=split_size, checkpoint=checkpoint
        )
        flow.engine = FaultyEngine(flow.engine.cluster, **self._fault_kwargs)
        return flow_id, flow


def traced_run(X, emr=None):
    buf = io.StringIO()
    with trace_to(buf):
        DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0), emr=emr).run(X)
    buf.seek(0)
    return read_trace(buf)


class TestSpanTree:
    def test_reconstructs_nesting_in_seq_order(self):
        records = [
            span("root", 1, None, 0.0, 10.0, 0),
            span("b", 3, 1, 5.0, 9.0, 2),
            span("a", 2, 1, 0.0, 4.0, 1),
        ]
        tree = build_span_tree(records)
        assert [r.name for r in tree.roots] == ["root"]
        assert [c.name for c in tree.roots[0].children] == ["a", "b"]
        assert tree.roots[0].self_time == pytest.approx(2.0)

    def test_missing_parent_becomes_orphan_root(self):
        records = [
            span("root", 1, None, 0.0, 10.0, 0),
            span("lost-child", 5, 99, 1.0, 3.0, 1),
        ]
        tree = build_span_tree(records)
        assert len(tree.roots) == 2
        orphan = next(n for n in tree.roots if n.name == "lost-child")
        assert orphan.orphan
        assert tree.orphans == [orphan]

    def test_open_span_contributes_structure_but_no_time(self):
        records = [
            span("root", 1, None, 0.0, None, 0),
            span("child", 2, 1, 1.0, 2.0, 1),
        ]
        tree = build_span_tree(records)
        assert tree.roots[0].open
        assert tree.roots[0].duration == 0.0
        assert tree.open_spans == [tree.roots[0]]
        assert [c.name for c in tree.roots[0].children] == ["child"]

    def test_empty_trace(self):
        tree = build_span_tree([])
        assert tree.roots == [] and tree.orphans == [] and tree.open_spans == []


class TestWallCriticalPath:
    def test_follows_longest_child_chain(self):
        records = [
            span("root", 1, None, 0.0, 10.0, 0),
            span("small", 2, 1, 0.0, 2.0, 1),
            span("big", 3, 1, 2.0, 9.0, 2),
            span("leaf", 4, 3, 2.0, 8.0, 3),
        ]
        path = wall_critical_path(records)
        assert [p["name"] for p in path] == ["root", "big", "leaf"]
        assert path[0]["share"] == pytest.approx(1.0)
        assert path[2]["duration"] == pytest.approx(6.0)

    def test_empty_trace_gives_empty_path(self):
        assert wall_critical_path([]) == []


class TestPathologicalBreakdown:
    """stage_breakdown must not crash on the traces crashed runs produce."""

    def test_only_open_roots_falls_back_to_envelope(self):
        records = [
            span("root", 1, None, 0.0, None, 0),
            span("child", 2, 1, 1.0, 3.0, 1),
        ]
        stages = stage_breakdown(records)
        # The open root has no duration; wall falls back to the child's
        # start→end envelope, so the child's share stays meaningful.
        assert stages["child"]["share"] == pytest.approx(1.0)
        assert "root" not in stages  # open spans carry no duration to count

    def test_missing_parent_span(self):
        records = [span("lost", 5, 99, 1.0, 3.0, 0)]
        stages = stage_breakdown(records)
        assert stages["lost"]["count"] == 1
        assert stages["lost"]["self"] == pytest.approx(2.0)

    def test_zero_wall_time_trace(self):
        records = [span("instant", 1, None, 5.0, 5.0, 0)]
        stages = stage_breakdown(records)
        assert stages["instant"]["total"] == 0.0
        assert stages["instant"]["share"] == 0.0  # no division by zero

    def test_empty_trace(self):
        assert stage_breakdown([]) == {}

    def test_analysis_bundle_on_pathological_trace(self):
        records = [
            span("root", 1, None, 0.0, None, 0),
            span("lost", 5, 99, 1.0, 3.0, 1),
        ]
        analysis = analyze_trace(records)
        assert analysis["open_spans"] == 1
        assert analysis["orphan_spans"] == 1
        assert analysis["phases"] == []
        assert analysis["parallel_efficiency"] is None
        # Renders without crashing too.
        assert "trace health" in render_critical_path(records)


class TestQuantiles:
    def test_histogram_quantile_within_observed_range(self):
        hist = Histogram("t", time_buckets())
        samples = [0.001, 0.002, 0.004, 0.1, 0.5, 2.0]
        for s in samples:
            hist.observe(s)
        for q in (0.0, 0.5, 0.95, 1.0):
            value = hist.quantile(q)
            assert min(samples) <= value <= max(samples)
        assert hist.quantile(0.0) <= hist.quantile(0.5) <= hist.quantile(1.0)

    def test_empty_histogram_returns_none(self):
        assert Histogram("t", time_buckets()).quantile(0.5) is None

    def test_single_sample_pins_all_quantiles(self):
        hist = Histogram("t", time_buckets())
        hist.observe(0.25)
        assert hist.quantile(0.0) == pytest.approx(0.25)
        assert hist.quantile(0.5) == pytest.approx(0.25)
        assert hist.quantile(1.0) == pytest.approx(0.25)

    def test_invalid_q_raises(self):
        hist = Histogram("t", time_buckets())
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_counts_interpolation_log_linear(self):
        # 10 samples uniform in the (1, 2] bucket: p50 lands inside it.
        buckets = (1.0, 2.0, 4.0)
        counts = [0, 10, 0, 0]
        value = quantile_from_counts(buckets, counts, 0.5)
        assert 1.0 < value <= 2.0

    def test_counts_empty_returns_none(self):
        assert quantile_from_counts((1.0, 2.0), [0, 0, 0], 0.5) is None

    def test_q_one_returns_maximum_when_known(self):
        buckets = (1.0, 2.0)
        assert quantile_from_counts(buckets, [0, 3, 0], 1.0, maximum=1.7) == pytest.approx(1.7)


class TestLenientReadTrace:
    def _valid_lines(self):
        return [
            json.dumps({"type": "span", "name": "a", "span_id": 1, "parent_id": None,
                        "seq": 0, "start": 0.0, "end": 1.0, "duration": 1.0,
                        "attributes": {}}),
            json.dumps({"type": "meta", "name": "meta", "seq": 1, "attributes": {"run": "test"}}),
        ]

    def test_truncated_trailing_line_is_skipped_and_counted(self):
        text = "\n".join(self._valid_lines()) + '\n{"type": "span", "na'
        records = read_trace(io.StringIO(text))
        warnings = [r for r in records if r.get("type") == "trace_warning"]
        assert len(warnings) == 1
        assert warnings[0]["skipped"] == 1
        assert sum(1 for r in records if r.get("type") == "span") == 1

    def test_non_object_json_line_is_skipped(self):
        text = "\n".join(self._valid_lines()) + "\n[1, 2, 3]\n42\n"
        records = read_trace(io.StringIO(text))
        assert [r["skipped"] for r in records if r.get("type") == "trace_warning"] == [2]

    def test_strict_mode_raises(self):
        text = "\n".join(self._valid_lines()) + "\n{broken"
        with pytest.raises(json.JSONDecodeError):
            read_trace(io.StringIO(text), strict=True)
        with pytest.raises(ValueError):
            read_trace(io.StringIO("[1]\n"), strict=True)

    def test_clean_trace_has_no_warning_record(self):
        records = read_trace(io.StringIO("\n".join(self._valid_lines()) + "\n"))
        assert not any(r.get("type") == "trace_warning" for r in records)

    def test_report_surfaces_skip_count(self):
        text = "\n".join(self._valid_lines()) + '\n{"type": "span", "na'
        report = render_trace_report(read_trace(io.StringIO(text)))
        assert "1 malformed trace line(s) skipped" in report


class TestPhaseCriticalPath:
    def test_clean_serial_run_critical_equals_makespan(self, blobs_small):
        X, _ = blobs_small
        records = traced_run(X)
        phases = phase_critical_path(records)
        assert phases, "traced run produced no cluster.phase events"
        for p in phases:
            assert p["critical"] <= p["makespan"] + 1e-9
            # Gap-free LPT schedules: slot loads ARE completion times.
            assert p["critical"] == pytest.approx(p["makespan"])

    @pytest.mark.parametrize(
        "fault_kwargs",
        [
            dict(node_policy=NodeFailurePolicy(kills=((0, 1, 0.5), (1, 2, 0.6), (2, 0, 0.4)))),
            dict(
                policy=FaultPolicy(failure_rate=0.15, max_attempts=12, seed=5),
                node_policy=NodeFailurePolicy(kills=((0, 3, 0.5),), rate=0.2, seed=6),
                straggler_policy=StragglerPolicy(rate=0.25, slowdown=(2.0, 6.0), seed=7),
            ),
        ],
        ids=["node-kills", "everything-at-once"],
    )
    def test_chaos_run_critical_bounded_by_makespan(self, blobs_small, fault_kwargs):
        X, _ = blobs_small
        records = traced_run(X, emr=ChaosEMR(**fault_kwargs))
        phases = phase_critical_path(records)
        assert phases
        for p in phases:
            assert p["critical"] <= p["makespan"] + 1e-9

    def test_straggler_attribution_joins_nodes(self, blobs_small):
        X, _ = blobs_small
        records = traced_run(X)
        phases = phase_critical_path(records)
        with_tasks = [p for p in phases if p["straggler"] is not None]
        assert with_tasks, "no phase had task spans to attribute"
        for p in with_tasks:
            straggler = p["straggler"]
            assert straggler["cost"] > 0.0
            assert straggler["node"] is not None
            assert 0 <= straggler["node"] < p["n_nodes"]
            # The straggler ran on a node that was actually charged work.
            assert p["per_node_cost"][straggler["node"]] > 0.0

    def test_old_trace_without_max_slot_cost_falls_back(self):
        records = [
            span("mr.job", 1, None, 0.0, 1.0, 0, job="j"),
            span("mr.schedule", 2, 1, 0.5, 0.9, 1, phase="map"),
            {
                "type": "event", "name": "cluster.phase", "span_id": None,
                "parent_id": 2, "seq": 2,
                "attributes": {"phase": "map", "makespan": 7.0, "n_nodes": 2,
                               "n_tasks": 3, "total_cost": 10.0,
                               "per_node_cost": [7.0, 3.0], "utilization": 0.7},
            },
        ]
        phases = phase_critical_path(records)
        assert phases[0]["critical"] == pytest.approx(7.0)
        assert phases[0]["bottleneck_node"] == 0

    def test_node_utilization_and_efficiency(self, blobs_small):
        X, _ = blobs_small
        records = traced_run(X)
        phases = phase_critical_path(records)
        nodes = node_utilization(phases)
        assert nodes
        for entry in nodes.values():
            assert entry["busy"] <= entry["capacity"] + 1e-9
            assert 0.0 <= entry["utilization"] <= 1.0 + 1e-9
        assert sum(e["busy"] for e in nodes.values()) == pytest.approx(
            sum(sum(p["per_node_cost"]) for p in phases)
        )
        efficiency = parallel_efficiency(phases)
        assert efficiency is not None
        assert 0.0 < efficiency <= 1.0

    def test_analyze_trace_bundle(self, blobs_small):
        X, _ = blobs_small
        records = traced_run(X)
        analysis = analyze_trace(records)
        assert analysis["critical_path_length"] <= analysis["simulated_makespan"] + 1e-9
        assert analysis["wall_time"] > 0.0
        assert analysis["drilldown"][0]["share"] == pytest.approx(1.0)
        quantiles = analysis["task_quantiles"]
        assert quantiles is not None and quantiles["count"] > 0
        assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]


class TestEnrichedSpans:
    def test_task_spans_carry_volume_attrs(self, blobs_small):
        X, _ = blobs_small
        records = traced_run(X)
        tasks = [
            r for r in records
            if r.get("type") == "span" and r.get("name") in ("mr.map_task", "mr.reduce_task")
        ]
        assert tasks
        for t in tasks:
            assert t["attributes"]["bytes_in"] > 0
            assert "bytes_out" in t["attributes"]

    def test_shuffle_volume_section(self, blobs_small):
        X, _ = blobs_small
        records = traced_run(X)
        volumes = shuffle_volume(records)
        assert volumes
        for v in volumes:
            assert v["records"] >= v["max_partition"] > 0
            assert v["bytes"] > 0
            assert v["skew"] >= 1.0

    def test_report_includes_new_sections(self, blobs_small):
        X, _ = blobs_small
        report = render_trace_report(traced_run(X))
        assert "== Task durations ==" in report
        assert "== Shuffle volume ==" in report
        assert "== Critical path (simulated) ==" in report
        assert "p95=" in report

    def test_render_critical_path_end_to_end(self, blobs_small):
        X, _ = blobs_small
        text = render_critical_path(traced_run(X))
        assert "== Wall-clock critical path ==" in text
        assert "== Simulated phase critical path ==" in text
        assert "== Node utilization ==" in text
        assert "parallel efficiency" in text
