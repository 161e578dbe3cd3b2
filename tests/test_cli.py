"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.graph.io import load_dataset_json


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.experiment == "table1"
        assert args.scale == "small"
        assert args.seed == 0

    def test_generate_arguments(self):
        args = build_parser().parse_args(["generate", "out.json", "--scale", "tiny", "--seed", "7"])
        assert args.output == "out.json"
        assert args.scale == "tiny"
        assert args.seed == 7

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1", "--scale", "huge"])


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        printed = capsys.readouterr().out.split()
        assert "table4" in printed and "fig14" in printed

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "table1", "--scale", "tiny", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "Relationship types in user surveys" in output
        assert "Colleague" in output

    def test_run_projection_experiment(self, capsys):
        assert main(["run", "table6"]) == 0
        output = capsys.readouterr().out
        assert "73.7" in output

    def test_generate_round_trips(self, tmp_path, capsys):
        target = tmp_path / "network.json"
        assert main(["generate", str(target), "--scale", "tiny", "--seed", "1"]) == 0
        graph, features, interactions, labels = load_dataset_json(target)
        assert graph.num_nodes == 120
        assert features is not None and interactions is not None
        assert len(labels) > 0
        assert "wrote" in capsys.readouterr().out

    def test_serve_replay_answers_every_query(self, capsys):
        argv = ["serve-replay", "--scale", "tiny", "--seed", "1", "--batches", "6"]
        assert main(argv) == 0
        printed = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.splitlines() if ": " in line
        )
        assert float(printed["num_queries"]) == 6 * 32
        assert float(printed["num_updates"]) == 2
        assert float(printed["sustained_qps"]) > 0.0
        with pytest.raises(SystemExit):  # the fault knob is gone
            build_parser().parse_args(["serve-replay", "--fault-rate", "0.4"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos"])
