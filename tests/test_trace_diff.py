"""Trace-diff tests: stage alignment, the diff report, and the CLI.

``repro trace diff`` is a report: against a trace carrying an injected
stage slowdown it itemizes the slowed stage, the fault-ledger delta and
the schedule summary, and exits zero (one on an empty trace).
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.observability import (
    diff_stage_tables,
    diff_traces,
    render_trace_diff,
    stage_table,
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
        "duration": end - start,
        "attributes": attrs,
    }


def baseline_records():
    return [
        span("job", 1, None, 0.0, 10.0, 0),
        span("mr.map_task", 2, 1, 0.0, 4.0, 1),
        span("mr.reduce_task", 3, 1, 4.0, 8.0, 2),
        span("mr.schedule", 4, 1, 8.0, 9.0, 3, phase="map"),
        {
            "type": "event", "name": "storage.retry", "span_id": None,
            "parent_id": 1, "seq": 4, "attributes": {"wasted_cost": 1.5},
        },
    ]


def slowed_records(factor=2.0):
    """The same run with mr.reduce_task slowed by ``factor``."""
    extra = 4.0 * (factor - 1.0)
    return [
        span("job", 1, None, 0.0, 10.0 + extra, 0),
        span("mr.map_task", 2, 1, 0.0, 4.0, 1),
        span("mr.reduce_task", 3, 1, 4.0, 8.0 + extra, 2),
        span("mr.schedule", 4, 1, 8.0 + extra, 9.0 + extra, 3, phase="map"),
    ]


def write_trace(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    return str(path)


class TestStageTable:
    def test_phase_attribute_refines_stage_key(self):
        table = stage_table(baseline_records())
        assert "mr.schedule:map" in table
        assert "mr.schedule" not in table


class TestDiffing:
    def test_common_new_vanished(self):
        base = stage_table(baseline_records())
        cur = stage_table(slowed_records())
        diff = diff_stage_tables(base, cur)
        assert "mr.reduce_task" in diff["common"]
        assert diff["common"]["mr.reduce_task"]["pct_self"] == pytest.approx(100.0)
        assert diff["new"] == {}
        assert diff["vanished"] == {}

    def test_one_sided_stages(self):
        base = stage_table(baseline_records())
        cur = dict(base)
        cur["fresh.stage"] = {"count": 1, "total": 1.0, "self": 1.0, "mean": 1.0, "share": 0.1}
        cur.pop("mr.map_task")
        diff = diff_stage_tables(base, cur)
        assert list(diff["new"]) == ["fresh.stage"]
        assert list(diff["vanished"]) == ["mr.map_task"]

    def test_fault_ledger_delta(self):
        diff = diff_traces(baseline_records(), slowed_records())
        faults = diff["faults"]
        assert faults["by_kind"]["storage.retry"] == {"base": 1, "cur": 0}
        assert faults["base_wasted"] == pytest.approx(1.5)
        assert faults["cur_wasted"] == 0.0

    def test_render_mentions_everything(self):
        text = render_trace_diff(diff_traces(baseline_records(), slowed_records()))
        assert "== Stage deltas ==" in text
        assert "mr.reduce_task" in text
        assert "storage.retry" in text
        assert "== Summary ==" in text


class TestDiffCLI:
    def test_prints_report_and_exits_zero(self, tmp_path, capsys):
        base = write_trace(tmp_path / "base.jsonl", baseline_records())
        cur = write_trace(tmp_path / "cur.jsonl", slowed_records(4.0))
        assert cli_main(["trace", "diff", base, cur]) == 0
        out = capsys.readouterr().out
        assert "mr.reduce_task" in out
        assert "+300.0%" in out
        assert "== Fault deltas ==" in out
        assert "== Summary ==" in out

    def test_empty_trace_exits_one(self, tmp_path, capsys):
        base = write_trace(tmp_path / "base.jsonl", baseline_records())
        empty = write_trace(tmp_path / "empty.jsonl", [])
        assert cli_main(["trace", "diff", base, empty]) == 1
        assert "contains no records" in capsys.readouterr().err
