"""Tests for the command-line interface."""

import csv
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_args(self):
        args = build_parser().parse_args(["cluster", "x.csv", "-k", "4", "-a", "sc"])
        assert args.command == "cluster"
        assert args.n_clusters == 4
        assert args.algorithm == "sc"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "x.csv", "-k", "2", "-a", "magic"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos"],
            ["autoscale"],
            ["serve-bench"],
            ["verify", "--n-jobs", "2"],
            ["bench", "snapshot", "t.jsonl", "-o", "x.json"],
            ["bench", "compare", "a.json", "b.json"],
            ["trace", "diff", "a.jsonl", "b.jsonl", "--fail-on", "*>1%"],
        ],
    )
    def test_deleted_drills_and_options_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err


class TestGenerateAndCluster:
    def test_generate_blobs_roundtrip(self, tmp_path):
        out = tmp_path / "blobs.csv"
        assert main(["generate", "blobs", "-n", "120", "-k", "3", "-d", "8",
                     "--seed", "1", "-o", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 120
        assert len(rows[0]) == 9  # 8 features + label

    def test_generate_uniform_has_no_label(self, tmp_path):
        out = tmp_path / "u.csv"
        main(["generate", "uniform", "-n", "10", "-d", "4", "-o", str(out)])
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == 4

    @pytest.mark.parametrize("algorithm", ["dasc", "sc", "psc", "nyst"])
    def test_cluster_all_algorithms(self, tmp_path, capsys, algorithm):
        data = tmp_path / "data.csv"
        labels_out = tmp_path / "labels.csv"
        main(["generate", "blobs", "-n", "150", "-k", "3", "-d", "8",
              "--seed", "2", "-o", str(data)])
        code = main([
            "cluster", str(data), "-k", "3", "-a", algorithm,
            "--sigma", "0.3", "--label-column", "8", "-o", str(labels_out),
        ])
        assert code == 0
        with open(labels_out) as fh:
            labels = [int(r[0]) for r in csv.reader(fh)]
        assert len(labels) == 150
        assert set(labels) <= set(range(3))
        err = capsys.readouterr().err
        assert "accuracy:" in err
        assert float(err.split(":")[1]) > 0.9

    def test_cluster_empty_input(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["cluster", str(empty), "-k", "2"])

    def test_cluster_ragged_rows(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1,2,3\n4,5,6\n7,8\n")
        with pytest.raises(SystemExit, match=r"^error: line 3 has 2 columns, expected 3$"):
            main(["cluster", str(ragged), "-k", "2"])

    def test_cluster_non_numeric_cell(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n4,x,6\n")
        with pytest.raises(SystemExit, match=r"^error: line 2: .*'x'"):
            main(["cluster", str(bad), "-k", "2"])

    def test_cluster_label_column_out_of_range(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(SystemExit, match=r"^error: --label-column 5 is out of range"):
            main(["cluster", str(data), "-k", "2", "--label-column", "5"])

    def test_analyze_complexity(self, capsys):
        assert main(["analyze", "complexity", "-n", str(2**22)]) == 0
        out = capsys.readouterr().out
        assert "DASC time" in out and "SC time" in out

    def test_analyze_collision(self, capsys):
        assert main(["analyze", "collision", "-n", str(2**20), "-m", "10"]) == 0
        out = capsys.readouterr().out
        assert "collision probability" in out
        p = float(out.strip().rsplit("=", 1)[1])
        assert 0.0 < p < 1.0

    def test_module_invocation(self, tmp_path):
        """python -m repro.cli works end to end."""
        data = tmp_path / "d.csv"
        main(["generate", "uniform", "-n", "30", "-d", "4", "-o", str(data)])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster", str(data), "-k", "2",
             "--sigma", "1.0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 30
