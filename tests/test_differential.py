"""The differential verification harness: every execution path, one answer."""

import json

import numpy as np
import pytest

from repro.verify import (
    VerificationReport,
    render_verification_report,
    run_differential_suite,
)

# One suite run covers all eight checks; share it across assertions.
SUITE_KW = dict(n_samples=200, n_clusters=4, n_features=8, seed=0, n_jobs=2, n_nodes=4)


@pytest.fixture(scope="module")
def report() -> VerificationReport:
    return run_differential_suite(**SUITE_KW)


class TestSuite:
    def test_all_checks_pass(self, report):
        failed = [c.name for c in report.checks if not c.passed]
        assert report.passed, f"failed checks: {failed}: {report.to_dict()}"

    def test_covers_full_matrix(self, report):
        names = {c.name for c in report.checks}
        assert names == {
            "dasc.serial_vs_parallel",
            "distributed.resumed_vs_uninterrupted",
            "dasc.local_vs_distributed",
            "quality.dasc_vs_exact_sc",
            "storage.corrupt_checkpoint_resume",
            "serving.assign_vs_fit",
            "dasc.streaming_vs_batch",
            "eigen.iterative_vs_dense",
        }

    def test_serial_parallel_bit_identical(self, report):
        check = {c.name: c for c in report.checks}["dasc.serial_vs_parallel"]
        assert check.details["labels_identical"]
        assert check.details["buckets_identical"]
        assert check.details["allocation_identical"]
        assert check.details["served_labels_identical"]

    def test_default_and_dense_eigensolver_labels_identical(self, report):
        check = {c.name: c for c in report.checks}["eigen.iterative_vs_dense"]
        assert check.details["labels_identical"]
        assert check.details["fallbacks"] == 0

    def test_local_and_distributed_labels_identical(self, report):
        check = {c.name: c for c in report.checks}["dasc.local_vs_distributed"]
        assert check.details["labels_identical"]

    def test_resume_actually_resumed(self, report):
        check = {c.name: c for c in report.checks}["distributed.resumed_vs_uninterrupted"]
        assert check.details["labels_identical"]
        assert check.details["counters_identical"]
        assert check.details["resumed_steps"], "crash point must leave steps to resume"

    def test_corrupt_checkpoint_resume_recovers(self, report):
        check = {c.name: c for c in report.checks}["storage.corrupt_checkpoint_resume"]
        assert check.details["labels_identical"]
        assert check.details["counters_identical"]
        assert check.details["quarantined"]
        assert check.details["step0_reexecuted"]

    def test_serving_assigns_fit_labels(self, report):
        check = {c.name: c for c in report.checks}["serving.assign_vs_fit"]
        assert check.details["all_routes_exact"]
        assert check.details["labels_identical"]
        assert check.details["labels_identical_after_reload"]

    def test_quality_gates(self, report):
        check = {c.name: c for c in report.checks}["quality.dasc_vs_exact_sc"]
        d = check.details
        assert d["ase_dasc"] <= d["ase_exact_sc"] * (1 + d["ase_rel_tol"]) + 1e-12
        assert d["nmi_vs_truth"] >= d["nmi_min"]
        assert d["accuracy_vs_truth"] >= d["accuracy_min"]

    def test_report_round_trips_to_json(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["passed"] is True
        assert len(payload["checks"]) == len(report.checks)

    def test_render(self, report):
        text = render_verification_report(report)
        assert "PASS" in text
        assert f"{len(report.checks)}/{len(report.checks)} checks passed" in text
        assert "FAIL" not in text

    def test_render_failure_marks_report(self):
        from repro.verify.differential import CheckResult

        bad = VerificationReport(workload={"n_samples": 1})
        bad.checks.append(CheckResult(name="x", passed=False, details={"error": "boom"}))
        assert not bad.passed
        text = render_verification_report(bad)
        assert "FAIL" in text and "VERIFICATION FAILED" in text


class TestCLI:
    def test_verify_exit_zero_and_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main([
            "verify", "-n", "200", "-k", "4", "-d", "8",
            "--n-jobs", "2", "--json", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "checks passed" in printed
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["workload"]["n_samples"] == 200
