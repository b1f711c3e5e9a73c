"""Perf-snapshot pipeline tests: schema, compare gating, harness hook.

Covers the snapshot round trip (including schema-version rejection), the
``repro bench snapshot`` / ``repro bench compare`` CLIs, the
``REPRO_BENCH_DIR`` hook in ``benchmarks/_harness.py``, and an in-process
run of the CI perf-smoke driver against the committed baseline's shape.
"""

import importlib.util
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.observability import (
    SCHEMA_VERSION,
    build_snapshot,
    compare_snapshots,
    parse_fail_on,
    read_snapshot,
    render_snapshot_comparison,
    snapshot_from_trace,
    write_snapshot,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_module(rel_path, name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(REPO_ROOT, rel_path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span(name, span_id, parent_id, start, end, seq, **attrs):
    return {
        "type": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "seq": seq,
        "start": start,
        "end": end,
        "duration": end - start,
        "attributes": attrs,
    }


def trace_records(scale=1.0):
    return [
        span("bench.root", 1, None, 0.0, 2.0 * scale, 0),
        span("bench.inner", 2, 1, 0.0, 1.0 * scale, 1),
        {
            "type": "metrics", "name": "metrics", "seq": 2,
            "data": {"counters": {"tasks": 4}, "gauges": {}, "histograms": {}},
        },
    ]


def write_trace(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    return str(path)


class TestSnapshotSchema:
    def test_round_trip(self, tmp_path):
        entry = snapshot_from_trace(trace_records(), "bench_a")
        snapshot = build_snapshot("test", [entry])
        path = tmp_path / "BENCH_test.json"
        write_snapshot(snapshot, path)
        loaded = read_snapshot(path)
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["tag"] == "test"
        bench = loaded["benchmarks"]["bench_a"]
        assert bench["stages"]["bench.root"]["self"] == pytest.approx(1.0)
        assert bench["counters"] == {"tasks": 4}
        assert bench["wall_time"] == pytest.approx(2.0)

    def test_rejects_unknown_schema_version(self, tmp_path):
        snapshot = build_snapshot("test", [snapshot_from_trace(trace_records(), "b")])
        snapshot["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "bad.json"
        write_snapshot(snapshot, path)
        with pytest.raises(ValueError, match="schema_version"):
            read_snapshot(path)

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "notasnapshot.json"
        path.write_text('{"kind": "something-else", "schema_version": 1}')
        with pytest.raises(ValueError, match="not a repro-bench-snapshot"):
            read_snapshot(path)


class TestCompareGating:
    def test_identical_snapshots_pass(self):
        snap = build_snapshot("t", [snapshot_from_trace(trace_records(), "b")])
        comparison = compare_snapshots(snap, snap, [parse_fail_on("*>20%")])
        assert comparison["violations"] == []
        assert "all rules passed" in render_snapshot_comparison(comparison)

    def test_slowdown_is_gated_and_tagged_with_benchmark(self):
        base = build_snapshot("t", [snapshot_from_trace(trace_records(1.0), "b")])
        cur = build_snapshot("t", [snapshot_from_trace(trace_records(3.0), "b")])
        comparison = compare_snapshots(base, cur, [parse_fail_on("bench.*>50%")])
        assert comparison["violations"]
        assert comparison["violations"][0]["benchmark"] == "b"
        assert "FAIL" in render_snapshot_comparison(comparison)

    def test_counter_drift_is_informational_only(self):
        base = build_snapshot("t", [snapshot_from_trace(trace_records(), "b")])
        records = trace_records()
        records[-1]["data"]["counters"]["tasks"] = 99
        cur = build_snapshot("t", [snapshot_from_trace(records, "b")])
        comparison = compare_snapshots(base, cur, [parse_fail_on("*>20%")])
        assert comparison["violations"] == []
        assert comparison["benchmarks"]["b"]["counters"]["tasks"] == {"base": 4, "cur": 99}
        assert "counter drift" in render_snapshot_comparison(comparison)

    def test_new_and_vanished_benchmarks(self):
        base = build_snapshot("t", [snapshot_from_trace(trace_records(), "old")])
        cur = build_snapshot("t", [snapshot_from_trace(trace_records(), "new")])
        comparison = compare_snapshots(base, cur, [])
        assert comparison["new"] == ["new"]
        assert comparison["vanished"] == ["old"]


class TestBenchCLI:
    def test_snapshot_then_compare_round_trip(self, tmp_path, capsys):
        base_trace = write_trace(tmp_path / "run.jsonl", trace_records(1.0))
        slow_trace = write_trace(tmp_path / "slow.jsonl", trace_records(3.0))
        base_snap = str(tmp_path / "BENCH_base.json")
        slow_snap = str(tmp_path / "BENCH_slow.json")
        assert cli_main(["bench", "snapshot", base_trace, "-o", base_snap, "--tag", "b"]) == 0
        assert cli_main(["bench", "snapshot", slow_trace, "-o", slow_snap, "--tag", "s"]) == 0
        # Names come from file stems, so align the slow one for the diff.
        snap = read_snapshot(slow_snap)
        snap["benchmarks"]["run"] = snap["benchmarks"].pop("slow")
        write_snapshot(snap, slow_snap)

        code = cli_main(["bench", "compare", base_snap, slow_snap, "--fail-on", "*>50%"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        assert cli_main(["bench", "compare", base_snap, base_snap, "--fail-on", "*>50%"]) == 0

    def test_compare_bad_snapshot_is_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = cli_main(["bench", "compare", str(bad), str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class StubBenchmark:
    """pytest-benchmark stand-in: runs the function once, records nothing."""

    def __init__(self, name):
        self.name = name

    def pedantic(self, fn, rounds=1, iterations=1):
        return fn()


class TestHarnessHook:
    def test_bench_dir_hook_writes_snapshot(self, tmp_path, monkeypatch):
        harness = load_module("benchmarks/_harness.py", "bench_harness")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "bench"))

        def workload():
            from repro.observability import get_tracer

            with get_tracer().span("stub.work"):
                return 42

        result = harness.run_once(StubBenchmark("test_stub[case]"), workload)
        assert result == 42
        snap_path = tmp_path / "bench" / "BENCH_test_stub_case_.json"
        snapshot = read_snapshot(snap_path)
        assert "stub.work" in snapshot["benchmarks"]["test_stub_case_"]["stages"]

    def test_without_bench_dir_no_snapshot(self, tmp_path, monkeypatch):
        harness = load_module("benchmarks/_harness.py", "bench_harness")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        harness.run_once(StubBenchmark("solo"), lambda: None)
        assert not (tmp_path / "bench").exists()
        assert (tmp_path / "traces" / "solo.jsonl").exists()


class TestPerfSmokeDriver:
    def test_in_process_run_matches_committed_baseline_shape(self, tmp_path, capsys):
        perf_smoke = load_module("benchmarks/perf_smoke.py", "perf_smoke")
        out = str(tmp_path / "BENCH_local.json")
        assert perf_smoke.main(["-o", out, "--tag", "local"]) == 0
        current = read_snapshot(out)
        baseline = read_snapshot(os.path.join(REPO_ROOT, "benchmarks", "BENCH_baseline.json"))
        assert set(current["benchmarks"]) == set(baseline["benchmarks"])
        # The simulated schedule is seeded, deterministic and integer-costed:
        # it must equal the committed baseline exactly, whatever the wall
        # clock does.
        for name, bench in current["benchmarks"].items():
            base = baseline["benchmarks"][name]
            for key in ("makespan", "critical_path", "parallel_efficiency"):
                assert bench[key] == base[key], (name, key)
        # And the whole pipeline gates clean against itself.
        comparison = compare_snapshots(current, current, [parse_fail_on("*>1%")])
        assert comparison["violations"] == []
