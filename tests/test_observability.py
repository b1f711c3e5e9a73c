"""Tracing, metrics, logging, and trace-report tests.

Covers the span/tracer mechanics, the null (disabled) path's identity
semantics, histogram bucketing, the trace-file round trip through
``repro trace report``, the bench harness's ``REPRO_TRACE_DIR`` hook,
fault-ledger itemization of storage retries, and driver traces surviving
a crash/resume cycle.
"""

import importlib.util
import io
import json
import logging
import pathlib

import numpy as np
import pytest

from repro.core import DASC, DASCConfig
from repro.dasc_mr import DistributedDASC
from repro.mapreduce import (
    ChaosStore,
    ElasticMapReduce,
    ResilientStore,
    RetryPolicy,
    StorageFaultPolicy,
)
from repro.mapreduce.counters import Counters
from repro.observability import (
    Histogram,
    InMemorySink,
    JsonLinesSink,
    MetricsRegistry,
    NullTracer,
    Tracer,
    configure_logging,
    fault_summary,
    get_logger,
    get_tracer,
    pow2_buckets,
    read_trace,
    render_trace_report,
    set_tracer,
    stage_breakdown,
    trace_to,
    use_tracer,
)
from repro.observability.trace import NULL_TRACER, _NULL_SPAN


class TestSpanMechanics:
    def test_nesting_records_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span is inner
                assert inner.parent_id == outer.span_id
            assert tracer.current_span is outer
        assert tracer.current_span is None
        records = tracer.sink.records
        # Emitted at close: inner first; seq preserves open order.
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[1]["seq"] < records[0]["seq"]
        by_name = {r["name"]: r for r in records}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]

    def test_attributes_via_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("s", n=3) as span:
            span.set("extra", "x")
        (record,) = tracer.sink.records
        assert record["attributes"] == {"n": 3, "extra": "x"}
        assert record["duration"] >= 0.0
        assert record["duration"] == pytest.approx(record["end"] - record["start"])

    def test_exception_stamps_error_and_closes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = tracer.sink.records
        assert record["attributes"]["error"] == "RuntimeError: boom"
        assert record["end"] is not None
        assert tracer.current_span is None

    def test_events_hang_off_current_span_and_share_seq(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            event = tracer.event("tick", n=1)
        assert event["parent_id"] == span.span_id
        span_record = tracer.sink.records[-1]
        assert event["seq"] > span_record["seq"]  # event opened after the span

    def test_meta_record(self):
        tracer = Tracer()
        record = tracer.meta(run="r1")
        assert record["type"] == "meta"
        assert record["attributes"] == {"run": "r1"}
        assert record["unix_time"] > 0

    def test_flush_exports_metrics_once_nonempty(self):
        tracer = Tracer()
        tracer.flush()
        assert tracer.sink.records == []  # empty registry -> no metrics record
        tracer.metrics.counter("c").inc(2)
        tracer.flush()
        (record,) = tracer.sink.records
        assert record["type"] == "metrics"
        assert record["data"]["counters"] == {"c": 2}


class TestNullPath:
    def test_default_global_tracer_is_disabled(self):
        assert get_tracer() is NULL_TRACER
        assert get_tracer().enabled is False

    def test_null_span_is_shared_instance(self):
        tracer = NullTracer()
        cm = tracer.span("a", n=1)
        assert cm is tracer.span("b") is _NULL_SPAN
        with cm as span:
            span.set("ignored", 0)  # no-op, no allocation

    def test_null_metrics_retain_nothing(self):
        tracer = NullTracer()
        tracer.metrics.counter("c").inc(10)
        tracer.metrics.histogram("h").observe(5)
        assert len(tracer.metrics) == 0
        assert tracer.event("e") is None
        assert tracer.meta(k=1) is None

    def test_use_tracer_restores_previous(self):
        real = Tracer()
        with use_tracer(real):
            assert get_tracer() is real
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_restores_disabled(self):
        previous = set_tracer(Tracer())
        try:
            assert get_tracer().enabled
        finally:
            set_tracer(previous)
        assert get_tracer() is NULL_TRACER


class TestMetrics:
    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_value_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(1)
        gauge.set(7)
        assert gauge.value == 7

    def test_histogram_bounds_are_inclusive_with_overflow(self):
        hist = Histogram("h", buckets=(1, 2, 4))
        for value in (0.5, 1.0, 1.5, 2.0, 4.0, 5.0):
            hist.observe(value)
        assert hist.counts == [2, 2, 1, 1]  # <=1, <=2, <=4, overflow
        assert hist.count == 6
        assert hist.min == 0.5
        assert hist.max == 5.0
        assert hist.mean == pytest.approx(14.0 / 6)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2, 2))

    def test_pow2_buckets(self):
        assert pow2_buckets(3) == (1, 2, 4, 8)
        with pytest.raises(ValueError):
            pow2_buckets(-1)

    def test_registry_get_or_create_and_conflicts(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        registry.histogram("h", buckets=(1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1, 2, 3))

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(0.5)
        registry.histogram("h", buckets=(1,)).observe(9)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 0.5}
        assert snap["histograms"]["h"]["counts"] == [0, 1]
        empty = MetricsRegistry()
        empty.histogram("h")
        assert empty.snapshot()["histograms"]["h"]["min"] is None


class TestCountersZeroSkipAndDiff:
    def test_merge_skips_zero_amounts(self):
        a, b = Counters(), Counters()
        b.increment("g", "zero", 0)
        b.increment("g", "real", 2)
        a.merge(b)
        assert a.as_dict() == {"g": {"real": 2}}

    def test_from_dict_skips_zero_amounts(self):
        restored = Counters.from_dict({"g": {"zero": 0, "real": 3}})
        assert restored.as_dict() == {"g": {"real": 3}}

    def test_diff_returns_only_deltas(self):
        before = Counters()
        before.increment("g", "a", 1)
        after = before.copy()
        after.increment("g", "a", 4)
        after.increment("g", "b", 2)
        delta = after.diff(before)
        assert delta.as_dict() == {"g": {"a": 4, "b": 2}}

    def test_checkpoint_round_trip_does_not_resurrect_empty_groups(self):
        counters = Counters()
        counters.increment("reduce", "output_records", 0)
        counters.increment("job", "map_tasks", 3)
        assert Counters.from_dict(counters.as_dict()).as_dict() == {"job": {"map_tasks": 3}}


class TestSinkRoundTrip:
    def test_jsonlines_round_trip_and_seq_sort(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonLinesSink(path)
        sink.emit({"type": "event", "seq": 1, "attributes": {}})
        sink.emit({"type": "event", "seq": 0, "attributes": {"x": np.int64(3)}})
        sink.close()
        records = read_trace(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["attributes"]["x"] == 3  # numpy coerced to plain int

    def test_append_mode_extends_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        JsonLinesSink(path).emit({"seq": 0})
        JsonLinesSink(path, mode="a").emit({"seq": 1})
        assert len(read_trace(path)) == 2

    def test_stream_sink_and_reader(self):
        buffer = io.StringIO()
        JsonLinesSink(buffer).emit({"seq": 0, "type": "meta", "attributes": {}})
        buffer.seek(0)
        assert read_trace(buffer)[0]["type"] == "meta"

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonLinesSink(tmp_path / "t.jsonl", mode="x")


class StubBenchmark:
    """pytest-benchmark stand-in: runs the function once, records nothing."""

    def __init__(self, name):
        self.name = name

    def pedantic(self, fn, rounds=1, iterations=1):
        return fn()


class TestBenchHarnessTraceDir:
    def test_run_once_writes_one_trace_per_benchmark(self, tmp_path, monkeypatch):
        path = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "_harness.py"
        spec = importlib.util.spec_from_file_location("bench_harness", path)
        harness = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(harness)
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))

        def workload():
            with get_tracer().span("stub.work"):
                return 42

        assert harness.run_once(StubBenchmark("test_stub[case]"), workload) == 42
        records = read_trace(tmp_path / "traces" / "test_stub_case_.jsonl")
        assert records[0]["type"] == "meta"
        assert records[0]["attributes"] == {"benchmark": "test_stub_case_"}
        assert "stub.work" in stage_breakdown(records)


class TestPipelineTrace:
    def test_dasc_fit_emits_stage_spans_and_metrics(self, blobs_small):
        X, _ = blobs_small
        tracer = Tracer()
        with use_tracer(tracer):
            DASC(4, seed=0).fit(X)
        tracer.flush()
        names = {r["name"] for r in tracer.sink.records if r["type"] == "span"}
        assert {"dasc.fit", "dasc.hash", "dasc.bucket", "dasc.kernel", "dasc.spectral"} <= names
        fit = next(r for r in tracer.sink.records if r["name"] == "dasc.fit")
        children = [
            r for r in tracer.sink.records
            if r["type"] == "span" and r.get("parent_id") == fit["span_id"]
        ]
        assert sum(c["duration"] for c in children) <= fit["duration"]
        metrics = next(r for r in tracer.sink.records if r["type"] == "metrics")
        assert metrics["data"]["histograms"]["dasc.bucket_size"]["count"] >= 1

    def test_stage_breakdown_self_time_not_double_counted(self, blobs_small):
        X, _ = blobs_small
        tracer = Tracer()
        with use_tracer(tracer):
            DASC(4, seed=0).fit(X)
        breakdown = stage_breakdown(tracer.sink.records)
        total_self = sum(entry["self"] for entry in breakdown.values())
        wall = breakdown["dasc.fit"]["total"]
        assert total_self <= wall * 1.01

    def test_trace_report_cli_round_trip(self, blobs_small, tmp_path, capsys):
        from repro.cli import main

        X, _ = blobs_small
        path = tmp_path / "run.jsonl"
        with trace_to(path) as tracer:
            tracer.meta(run="test")
            DASC(4, seed=0).fit(X)
        assert main(["trace", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Stage breakdown" in out
        assert "dasc.fit" in out
        assert "run=test" in out

    def test_trace_report_empty_file_errors(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "report", str(path)]) == 1


def flaky_store_round_trips():
    """Put and get ten objects through a store failing 40% of requests.

    Returns ``(tracer, store)``; the seeds are chosen so the schedule fires.
    """
    chaos = ChaosStore(policy=StorageFaultPolicy(error_rate=0.4, seed=3))
    store = ResilientStore(chaos, retry=RetryPolicy(max_attempts=16, deadline=120.0, seed=3))
    tracer = Tracer()
    with use_tracer(tracer):
        for i in range(10):
            store.put(f"k{i}", i)
            assert store.get(f"k{i}") == i
    assert chaos.injected["error"] > 0
    return tracer, store


class TestFaultItemization:
    def test_retries_itemized_with_wasted_cost(self):
        tracer, store = flaky_store_round_trips()
        retries = [
            r for r in tracer.sink.records
            if r["type"] == "event" and r["name"] == "storage.retry"
        ]
        assert retries
        assert tracer.metrics.counter("storage.retries").value == len(retries)
        assert all(r["attributes"]["wasted_cost"] > 0 for r in retries)
        # Each retry's backoff is its wasted cost, and they add up to the
        # client's simulated backoff.
        assert all(r["attributes"]["wasted_cost"] == r["attributes"]["delay"] for r in retries)
        summary = fault_summary(tracer.sink.records)
        assert summary["by_kind"] == {"storage.retry": len(retries)}
        assert len(summary["items"]) == len(retries)
        assert summary["wasted_cost"] == pytest.approx(store.backoff_total)

    def test_report_renders_fault_ledger(self):
        tracer, store = flaky_store_round_trips()
        report = render_trace_report(tracer.sink.records)
        assert "== Faults ==" in report
        assert f"total wasted cost: {store.backoff_total:.4f}" in report
        assert "storage.retry×" in report


class TestDriverTraceSurvivesResume:
    def test_submit_crash_resume_one_trace_file(self, blobs_small, tmp_path):
        X, _ = blobs_small
        path = tmp_path / "driver.jsonl"
        emr = ElasticMapReduce()
        dasc = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0), emr=emr)
        with trace_to(path) as tracer:
            tracer.meta(phase="first-attempt")
            flow_id = dasc.submit(X)
            emr.run_job_flow(flow_id, max_steps=1)  # driver "crashes" mid-flow
        with trace_to(path, mode="a") as tracer:
            tracer.meta(phase="resume")
            result = dasc.resume(flow_id)
        assert 0 in result.resumed_steps
        records = read_trace(path)
        names = [r["name"] for r in records if r["type"] == "span"]
        assert "driver.submit" in names
        assert "driver.resume" in names
        assert "driver.collect" in names
        restores = [
            r for r in records if r["type"] == "event" and r["name"] == "jobflow.restore"
        ]
        assert restores  # the resumed flow restored step 0 from its checkpoint
        # Both lifecycle phases landed in one file, in order.
        metas = [r["attributes"]["phase"] for r in records if r["type"] == "meta"]
        assert metas == ["first-attempt", "resume"]


class TestCheckpointEvents:
    def test_checkpoint_event_records_stored_bytes(self, blobs_small):
        X, _ = blobs_small
        emr = ElasticMapReduce()
        tracer = Tracer()
        with use_tracer(tracer):
            DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0), emr=emr).run(X)
        events = [
            r["attributes"] for r in tracer.sink.records
            if r["type"] == "event" and r["name"] == "jobflow.checkpoint"
        ]
        assert [e["index"] for e in events] == [0, 2]  # both MapReduce steps
        for e in events:
            assert e["bytes"] == len(emr.s3.get(e["key"]))


class TestLoggingConfiguration:
    def test_get_logger_qualifies_under_repro(self):
        assert get_logger("core.buckets").name == "repro.core.buckets"
        assert get_logger("repro.dasc_mr.driver").name == "repro.dasc_mr.driver"
        assert get_logger().name == "repro"

    def test_configure_installs_single_handler(self):
        root = configure_logging("INFO")
        first = list(root.handlers)
        root = configure_logging("DEBUG")
        assert len(root.handlers) == len(first)  # replaced, not stacked
        assert root.level == logging.DEBUG
        assert root.propagate is False

    def test_configure_module_levels_and_stream(self):
        stream = io.StringIO()
        configure_logging("WARNING", stream=stream, module_levels={"core.buckets": "DEBUG"})
        get_logger("core.buckets").debug("fine-grained %d", 1)
        get_logger("dasc_mr.driver").debug("suppressed")
        output = stream.getvalue()
        assert "fine-grained 1" in output
        assert "suppressed" not in output

    def test_no_module_calls_basicconfig(self):
        import pathlib

        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = [
            str(p)
            for p in src.rglob("*.py")
            if "basicConfig(" in p.read_text(encoding="utf-8")
        ]
        assert not offenders, f"library code must not call logging.basicConfig: {offenders}"
