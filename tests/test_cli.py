"""Tests for the command-line interface."""

import pytest

from repro.cli import _spec_from_args, build_parser, main
from repro.experiments.runner import RunSpec
from repro.util.simtime import DAY


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--preset", "gigantic"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.preset == "tiny"
        assert args.seed == 7

    def test_sim_flags_map_to_run_spec(self):
        args = build_parser().parse_args([
            "run", "--preset", "small", "--seed", "11",
            "--faults", "stormy", "--crashes", "flaky", "--audit",
            "--scenario", "captcha-farm", "--filters", "hybrid",
            "--checkpoint-every", "5", "--shards", "2",
        ])
        assert _spec_from_args(args) == RunSpec(
            preset="small", seed=11, faults="stormy", crashes="flaky",
            audit=True, scenario="captcha-farm", chain="hybrid",
            checkpoint_every=5 * DAY, shards=2,
        )

    def test_sweep_flags_map_to_run_spec(self):
        args = build_parser().parse_args(["sweep", "--audit"])
        assert _spec_from_args(args) == RunSpec(preset="tiny", seed=3, audit=True)


class TestCommands:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "tiny" in out

    def test_run(self, capsys):
        assert main(["run", "--preset", "tiny", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "messages" in out
        assert "mta" in out

    def test_experiment_single(self, capsys):
        assert main(["experiment", "fig1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "=== fig1 ===" in out
        assert "challenges sent" in out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_sharded_prints_each_shard(self, capsys):
        assert main(["run", "--preset", "tiny", "--seed", "7",
                     "--shards", "2", "--shard-jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "  shard 0: " in out
        assert "  shard 1: " in out

    def test_unknown_gate_lists_the_gates(self, capsys):
        assert main(["gate", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown gate: nope" in err
        assert "fault, audit, crash, shard, scenario, frontier, serve" in err

    def test_cli_import_leaves_gates_unloaded(self):
        """`repro gate` imports repro.gates lazily: the CLI's start-up
        cost (the live benchmark's setup) must not grow with it."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = "import sys, repro.cli; print('repro.gates' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        assert out.strip() == "False"

    def test_experiment_multiple(self, capsys):
        assert main(["experiment", "fig1", "sec31", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "=== fig1 ===" in out
        assert "=== sec31 ===" in out


class TestSweep:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.runs == 3
        assert args.jobs == 1
        assert args.no_cache is False

    def test_invalid_runs_rejected(self, capsys):
        assert main(["sweep", "--runs", "0", "--no-cache"]) == 2
        assert "--runs" in capsys.readouterr().err

    def test_invalid_jobs_rejected(self, capsys):
        assert main(["sweep", "--jobs", "0", "--no-cache"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_runs_and_reports_counters(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
        assert main(["sweep", "--preset", "tiny", "--seed", "3",
                     "--runs", "1", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "correlation stability" in out
        assert "1 simulated, 0 from cache" in out
        # Second invocation answers from the cache: zero simulations.
        assert main(["sweep", "--preset", "tiny", "--seed", "3",
                     "--runs", "1", "--jobs", "1"]) == 0
        assert "0 simulated, 1 from cache" in capsys.readouterr().out
