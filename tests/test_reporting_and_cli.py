"""Tests for the report serialisation and the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


from repro.cli import build_parser, main
from repro.experiments.reporting import ExperimentReport


class TestExperimentReport:
    def test_columns_preserve_order(self):
        report = ExperimentReport("demo", rows=[{"a": 1, "b": 2}, {"b": 3, "c": 4}])
        assert report.columns() == ["a", "b", "c"]

    def test_json_roundtrip(self, tmp_path):
        report = ExperimentReport("demo", rows=[{"a": 1}], parameters={"n": 5})
        path = report.save(tmp_path / "out.json")
        loaded = json.loads(path.read_text())
        assert loaded["experiment"] == "demo"
        assert loaded["rows"] == [{"a": 1}]
        assert loaded["parameters"] == {"n": 5}

    def test_markdown_rendering(self, tmp_path):
        report = ExperimentReport("demo", rows=[{"a": 1.5}], parameters={"n": 5})
        text = report.to_markdown()
        assert "## demo" in text
        assert "n=5" in text
        path = report.save(tmp_path / "out.md")
        assert path.read_text().startswith("## demo")

    def test_to_json_is_valid_json(self):
        report = ExperimentReport("demo", rows=[{"a": 1}])
        parsed = json.loads(report.to_json())
        assert parsed["experiment"] == "demo"

    def test_empty_rows_markdown(self):
        assert "(no rows)" in ExperimentReport("demo", rows=[]).to_markdown()


class TestCli:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in ("table1", "noise-sweep", "rate", "ablations", "simulate"):
            args = parser.parse_args([command] if command != "noise-sweep" else [command])
            assert hasattr(args, "func")

    def test_simulate_command_runs(self, capsys, tmp_path):
        output = tmp_path / "run.json"
        code = main(
            [
                "simulate",
                "--workload", "gossip",
                "--topology", "line",
                "--nodes", "4",
                "--scheme", "algorithm_crs",
                "--noise", "0.0",
                "--seed", "3",
                "--output", str(output),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "overhead" in captured
        data = json.loads(output.read_text())
        assert data["rows"][0]["success"] is True

    def test_rate_command_runs(self, capsys):
        code = main(
            [
                "rate",
                "--scheme", "algorithm_crs",
                "--topology", "line",
                "--nodes", "4",
                "--phases-grid", "4", "8",
                "--trials", "1",
            ]
        )
        assert code == 0
        assert "overhead" in capsys.readouterr().out

    def test_noise_sweep_command_runs(self, capsys):
        code = main(
            [
                "noise-sweep",
                "--scheme", "algorithm_crs",
                "--topology", "line",
                "--nodes", "4",
                "--phases", "4",
                "--multipliers", "0.5", "32",
                "--trials", "1",
            ]
        )
        assert code == 0
        assert "success_rate" in capsys.readouterr().out

    def test_table1_measured_only_runs(self, capsys, tmp_path):
        output = tmp_path / "table1.md"
        code = main(
            [
                "table1",
                "--topologies", "line",
                "--nodes", "4",
                "--phases", "4",
                "--trials", "1",
                "--measured-only",
                "--output", str(output),
            ]
        )
        assert code == 0
        assert output.exists()
        assert "Algorithm A" in capsys.readouterr().out

    @pytest.mark.smoke
    def test_pooled_stored_sweep_exits_cleanly(self, tmp_path):
        """The experiment scope closes its process pool, so the interpreter
        exits without pool-shutdown noise on stderr."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "noise-sweep",
                "--scheme", "algorithm_a", "--topology", "line", "--phases", "6",
                "--multipliers", "1.0", "--trials", "4", "--no-cache", "--jobs", "2",
                "--store-dir", str(tmp_path / "runs"),
            ],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert completed.returncode == 0
        assert completed.stderr == ""
        assert "run persisted as" in completed.stdout

    @pytest.mark.parametrize(
        "command",
        [
            ["trace", "run-000001"],
            ["metrics", "run-000002"],
            ["explain", "run-000002"],
            ["flight", "run-000002", "0"],
        ],
        ids=["trace", "metrics", "explain", "flight"],
    )
    def test_runs_reader_rejects_a_run_of_the_wrong_kind(self, command, tmp_path, capsys):
        # One stored sweep point: run-000001 is its trial_set, run-000002 the report.
        assert main([
            "noise-sweep", "--topology", "line", "--nodes", "4", "--phases", "4",
            "--multipliers", "1.0", "--trials", "1", "--store-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["runs", *command, "--store-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "not a" in err

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--trace", "--trace-sample", "0"], "--trace-sample"),
            (["--forensics", "--forensics-capacity", "0"], "--forensics-capacity"),
        ],
        ids=["trace_sample", "forensics_capacity"],
    )
    def test_zero_sampling_flags_are_refused(self, flags, name, capsys):
        """0 is not a sampling rate or ring size: it fails like -1 does
        instead of silently becoming the default."""
        with pytest.raises(SystemExit) as excinfo:
            main(["noise-sweep", "--nodes", "4", "--phases", "4", "--multipliers", "1.0",
                  "--trials", "1", "--no-cache", *flags])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [f"error: {name} must be a positive integer"]
