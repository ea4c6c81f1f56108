"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.persist import load_cube, save_cube
from repro import GrowableCube


@pytest.fixture
def points_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("x,y,sales\n0,0,10\n3,4,25\n7,7,5\n3,4,15\n")
    return path


@pytest.fixture
def cube_file(tmp_path, points_csv):
    path = tmp_path / "cube.npz"
    assert main(["build", str(points_csv), str(path)]) == 0
    return path


class TestBuild:
    def test_build_from_csv(self, cube_file):
        cube = load_cube(cube_file)
        assert cube.name == "ddc"
        assert cube.shape == (8, 8)
        assert cube.get((3, 4)) == 40  # duplicate rows combined
        assert cube.total() == 55

    def test_build_other_method(self, tmp_path, points_csv):
        path = tmp_path / "ps.npz"
        assert main(["build", str(points_csv), str(path), "--method", "ps"]) == 0
        assert load_cube(path).name == "ps"

    def test_build_float_measure(self, tmp_path):
        source = tmp_path / "f.csv"
        source.write_text("0,0,1.5\n1,1,2.25\n")
        path = tmp_path / "f.npz"
        assert main(["build", str(source), str(path), "--float"]) == 0
        assert load_cube(path).total() == pytest.approx(3.75)

    def test_build_from_npy(self, tmp_path, rng):
        data = rng.integers(0, 9, size=(6, 5))
        source = tmp_path / "a.npy"
        np.save(source, data)
        path = tmp_path / "a.npz"
        assert main(["build", str(source), str(path)]) == 0
        assert np.array_equal(load_cube(path).to_dense(), data)

    def test_build_three_dims(self, tmp_path):
        source = tmp_path / "p3.csv"
        source.write_text("1,2,3,10\n0,0,0,5\n")
        path = tmp_path / "c3.npz"
        assert main(["build", str(source), str(path), "--dims", "3"]) == 0
        cube = load_cube(path)
        assert cube.shape == (2, 3, 4)
        assert cube.total() == 15

    def test_build_rejects_bad_columns(self, tmp_path):
        source = tmp_path / "bad.csv"
        source.write_text("1,2\n")
        with pytest.raises(SystemExit):
            main(["build", str(source), str(tmp_path / "x.npz")])

    def test_build_rejects_non_numeric_data_row(self, tmp_path):
        source = tmp_path / "bad.csv"
        source.write_text("0,0,5\noops,1,2\n")
        with pytest.raises(SystemExit):
            main(["build", str(source), str(tmp_path / "x.npz")])

    def test_build_rejects_empty_file(self, tmp_path):
        source = tmp_path / "empty.csv"
        source.write_text("\n")
        with pytest.raises(SystemExit):
            main(["build", str(source), str(tmp_path / "x.npz")])


class TestQuery:
    def test_range_query(self, cube_file, capsys):
        assert main(["query", str(cube_file), "--low", "0", "0", "--high", "7", "7"]) == 0
        assert capsys.readouterr().out.strip() == "55"

    def test_prefix_query(self, cube_file, capsys):
        assert main(["query", str(cube_file), "--low", "3", "4"]) == 0
        assert capsys.readouterr().out.strip() == "50"


class TestUpdate:
    def test_update_persists(self, cube_file, capsys):
        assert main(
            ["update", str(cube_file), "--cell", "1", "1", "--delta", "100"]
        ) == 0
        cube = load_cube(cube_file)
        assert cube.get((1, 1)) == 100
        assert cube.total() == 155


class TestInfo:
    def test_info_method_cube(self, cube_file, capsys):
        assert main(["info", str(cube_file)]) == 0
        out = capsys.readouterr().out
        assert "method:        ddc" in out
        assert "shape:         (8, 8)" in out
        assert "total:         55" in out

    def test_info_growable_cube(self, tmp_path, capsys):
        grown = GrowableCube(dims=2)
        grown.add((-5, 9), 3)
        path = tmp_path / "g.npz"
        save_cube(grown, path)
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "growable cube" in out
        assert "bounds:" in out


class TestArtifacts:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "1E+72" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "75.00%" in capsys.readouterr().out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_table1_custom_dims(self, capsys):
        assert main(["table1", "--dims", "2"]) == 0
        assert "d=2" in capsys.readouterr().out


class TestObservabilityCommands:
    ARGS = ["--shape", "32", "32", "--shards", "2", "--events", "60", "--seed", "3"]

    def test_serve_stats_reports_latency_quantiles(self, capsys):
        assert main(["serve-stats", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "p50us" in out and "p95us" in out and "p99us" in out
        assert "stale)" in out  # cache line includes stale evictions
        assert " revalidations, " in out

    def test_metrics_prometheus_exposition(self, capsys):
        assert main(["metrics", *self.ARGS, "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_request_seconds histogram" in out
        assert 'repro_engine_shard_seconds_bucket{shard=' in out
        assert "repro_engine_cache_lookups_total{" in out

    def test_metrics_json_export(self, capsys):
        import json

        assert main(["metrics", *self.ARGS, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        names = {family["name"] for family in document["metrics"]}
        assert "repro_engine_shard_seconds" in names
        assert "repro_tree_descent_depth" in names

    def test_trace_prints_nested_span_trees(self, capsys):
        assert main(["trace", *self.ARGS, "--slowest", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 slowest:" in out
        assert "engine." in out
        assert "  shard.range_sum" in out  # nested one level under the root
        assert "slow-query log:" in out


class TestServeCommand:
    def test_drain_summary_names_throttles_and_rejections_apart(self, capsys):
        from repro.cli import _serve_summary

        assert main([
            "serve", "--shape", "8", "8", "--shards", "2",
            "--port", "0", "--duration", "0.2",
        ]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "served: throttled 0, rejected 0"
        )
        stats = {"throttled": 3, "overflow_rejected": 4}
        assert _serve_summary(stats) == "served: throttled 3, rejected 4"


class TestParser:
    SUBCOMMANDS = {
        "build", "query", "update", "info", "audit",
        "table1", "table2", "figure1",
        "serve-stats", "metrics", "trace", "top",
        "serve", "analyze",
    }

    def test_subcommand_set(self):
        (subparsers,) = build_parser()._subparsers._group_actions
        assert set(subparsers.choices) == self.SUBCOMMANDS

    def test_serve_defaults_to_the_measured_layout(self):
        # `serve` runs the layout its benchmarks measure; the cube-file
        # and replay commands keep the paper's structure.
        parser = build_parser()
        assert parser.parse_args(["serve"]).method == "vector"
        assert parser.parse_args(["serve-stats"]).method == "ddc"
        assert parser.parse_args(["build", "in.csv", "out.npz"]).method == "ddc"

    @pytest.mark.parametrize("retired", ["batch", "engine", "descent"])
    def test_retired_bench_commands_exit_2(self, retired):
        with pytest.raises(SystemExit) as exit_info:
            main([f"bench-{retired}"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "command", ["serve", "serve-stats", "metrics", "trace", "top"]
    )
    def test_thread_executor_choice_exits_2(self, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--executor", "thread"])
        assert exit_info.value.code == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestImportGraph:
    """Only curve fitting needs scipy: the CLI and `repro serve` load none."""

    PROBE = """
import runpy, sys
sys.modules["scipy"] = None  # blocked: any scipy import now raises
import repro.cli
sys.argv = ["repro", "serve", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exit_:
    assert exit_.code == 0, exit_.code
assert sys.modules["scipy"] is None
loaded = [name for name in sys.modules if name.startswith("scipy.")]
assert not loaded, loaded
"""

    def test_cli_and_serve_help_import_no_scipy(self):
        src = str(Path(repro.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert "usage: repro serve" in done.stdout
