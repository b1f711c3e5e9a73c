"""Tests for the experiments API (registry, result rendering, fast experiments)."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    figure1,
    figure2,
    figure6,
    run_experiment,
    table1,
)
from repro.experiments.base import format_table


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "table3"
        }

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")

    def test_run_by_id_matches_direct_call(self):
        a = run_experiment("fig1")
        b = figure1()
        assert a.rows == b.rows


class TestRendering:
    def test_format_table_alignment(self):
        text = format_table("T", ["col", "x"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0] == "=== T ==="
        assert len({len(l) for l in lines[1:]}) == 1  # aligned columns

    def test_render_includes_notes(self):
        result = ExperimentResult(
            experiment_id="x", title="T", header=["a"], rows=[[1]], notes="caveat"
        )
        assert "caveat" in result.render()


class TestFastExperiments:
    """The analytic/synthetic experiments run fully in tests; the measured
    ones are exercised by the benchmark suite (they take minutes)."""

    def test_figure1_structure(self):
        result = figure1(range(20, 24))
        assert result.experiment_id == "fig1"
        assert len(result.rows) == 4
        assert len(result.data["dasc_time_log2_hours"]) == 4

    def test_figure2_structure(self):
        result = figure2(m_values=range(5, 16, 5), size_exponents=range(20, 23))
        assert len(result.data["series"]) == 3
        assert all(len(s) == 3 for s in result.data["series"].values())
        assert result.notes  # the Eq.-18 fidelity note is attached

    def test_table1_includes_generator_counts(self):
        result = table1(generator_exponents=(10,))
        assert result.data["generator"][1024] == 17
        # Paper reference column present for every recorded size.
        assert len(result.rows) == 12

    def test_figure6_measures_the_dasc_peak(self):
        """Fig. 6(b) reports a measured DASC peak beside Eq. 12's model; the
        fit holds the largest Gram block it builds, in float64."""
        result = figure6(sizes=(2**9,), sc_max=0)
        assert result.header[-1] == "peak DASC"
        (largest,) = result.data["blocks"]["DASC"][512]
        assert result.data["peak"]["DASC"][512] >= 8 * largest**2

    def test_module_entry_point_lists(self, capsys):
        from repro.experiments.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table3" in out

    def test_module_entry_point_runs(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
