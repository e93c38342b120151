"""Tests for run/figure serialization and the CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.graphs import ring_based
from repro.harness import ALL_FIGURES, ExperimentSpec, run_spec, svm_workload
from repro.harness.io import (
    atomic_write_json,
    figure_to_dict,
    run_to_dict,
    save_figure,
)
from repro.scenarios.models import RandomSlowdown
from repro.sim import RngStreams


@pytest.fixture(scope="module")
def run():
    workload = svm_workload("smoke")
    return run_spec(
        ExperimentSpec("io", workload, ring_based(8), max_iter=12, seed=0)
    )


def save_summary(run, path):
    """What ``repro train --out`` writes: the run summary, atomically."""
    return atomic_write_json(path, run_to_dict(run))


def load_summary(path):
    return json.loads(path.read_text())


class TestRunSerialization:
    def test_run_to_dict_is_json_safe(self, run):
        payload = run_to_dict(run)
        text = json.dumps(payload)  # raises if not JSON-safe
        assert "hop" in text

    def test_round_trip_through_disk(self, run, tmp_path):
        path = save_summary(run, tmp_path / "run.json")
        loaded = load_summary(path)
        assert loaded["protocol"] == "hop"
        assert loaded["n_workers"] == 8
        assert loaded["wall_time"] == pytest.approx(run.wall_time)
        assert len(loaded["loss_curve"]["times"]) == len(
            loaded["loss_curve"]["losses"]
        )

    def test_worker_stats_preserved(self, run, tmp_path):
        loaded = load_summary(save_summary(run, tmp_path / "r.json"))
        assert len(loaded["worker_stats"]) == 8
        assert loaded["worker_stats"][0]["iterations_completed"] == 12

    def test_creates_parent_directories(self, run, tmp_path):
        path = save_summary(run, tmp_path / "deep" / "nested" / "run.json")
        assert path.exists()


class TestFigureSerialization:
    def test_figure_round_trip(self, tmp_path):
        result = ALL_FIGURES["table1"]("smoke")
        payload = figure_to_dict(result)
        json.dumps(payload)
        assert payload["passed"] is True
        assert payload["figure_id"] == "table1"
        path = save_figure(result, tmp_path / "table1.json")
        assert json.loads(path.read_text())["checks"]


class TestCLI:
    def test_graphs_command(self, capsys):
        assert main(["graphs", "--graph", "ring", "--workers", "8"]) == 0
        out = capsys.readouterr().out
        assert "spectral gap" in out
        assert "ring(8)" in out

    def test_train_command_writes_summary(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--workload", "svm",
                "--workers", "6",
                "--iterations", "8",
                "--out", str(tmp_path / "out.json"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out.json").exists()
        assert "wall_time" in capsys.readouterr().out

    def test_train_with_backup_and_slowdown(self, capsys):
        code = main(
            [
                "train",
                "--mode", "backup",
                "--scenario", "straggler",
                "--workers", "6",
                "--iterations", "8",
            ]
        )
        assert code == 0
        assert "backup" in capsys.readouterr().out

    def test_figures_command_single(self, capsys):
        assert main(["figures", "--only", "fig21"]) == 0
        out = capsys.readouterr().out
        assert "spectral gaps" in out.lower()
        assert "all shape checks passed" in out

    def test_figures_unknown_id(self, capsys):
        assert main(["figures", "--only", "fig99"]) == 2

    def test_ablations_unknown_id(self, capsys):
        assert main(["ablations", "--only", "nope"]) == 2

    def test_figures_json_dump(self, tmp_path, capsys):
        code = main(
            ["figures", "--only", "fig21", "--json-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "fig21.json").exists()

    def test_skip_requires_non_standard_mode(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "train",
                    "--skip",
                    "--mode", "standard",
                    "--workers", "6",
                    "--iterations", "4",
                ]
            )


class TestParallelismKnobs:
    """``--jobs`` (or ``REPRO_JOBS``) is the only parallelism knob: one
    cell runs in one process."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--shards", "2"],
            ["profile", "--engine-only", "--shards", "2"],
        ],
        ids=["train", "profile"],
    )
    def test_shards_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["figures", "ablations"])
    def test_negative_jobs_is_an_argparse_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--jobs", "-1"])
        assert exit_info.value.code == 2
        assert "jobs must be >= 0, got -1" in capsys.readouterr().err

    def test_repro_shards_does_not_change_a_run(self, monkeypatch, capsys):
        argv = ["train", "--workers", "6", "--iterations", "6"]
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("REPRO_SHARDS", "2")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain


class TestRegistryChoices:
    """Name flags take their choices from the registries: an unknown
    name is an argparse error (exit 2) and a size the topology builder
    rejects is a one-line error, never a traceback."""

    @pytest.mark.parametrize("command", ["train", "profile", "graphs"])
    def test_unknown_graph_is_an_argparse_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--graph", "nope"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "profile", "graphs"])
    def test_graph_size_the_builder_rejects_is_an_error_line(self, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--graph", "hypercube", "--workers", "12"])
        assert exit_info.value.code == (
            "error: hypercube needs a power-of-two size, got 12"
        )

    def test_unknown_compression_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--compression", "nope"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["top-k", "none"])
    def test_compression_aliases_and_none_are_choices(self, scheme, capsys):
        argv = ["train", "--workers", "4", "--iterations", "3"]
        assert main(argv + ["--compression", scheme]) == 0
        assert "wall_time" in capsys.readouterr().out


class _Built(Exception):
    """Stops ``repro train`` once it has built its spec."""


class TestCLIPaperRecipes:
    """The paper's two recipes are ``--scenario`` spellings with every
    knob exposed: factor, probability, multi-worker straggler maps."""

    def _slowdown(self, monkeypatch, *argv):
        """The slowdown model of the spec ``repro train argv`` runs."""
        specs = []

        def capture(spec):
            specs.append(spec)
            raise _Built

        monkeypatch.setattr("repro.cli.run_spec", capture)
        with pytest.raises(_Built):
            main(["train", *argv])
        return specs[0].built_scenario().slowdown

    def test_random_defaults_match_paper(self, monkeypatch):
        model = self._slowdown(monkeypatch, "--scenario", "random")
        paper = RandomSlowdown(RngStreams(0).spawn("slowdown"), 6.0, 1 / 8)
        assert (model.slow_factor, model.probability) == (6.0, 1 / 8)
        assert [model.factor(w, k) for w in range(8) for k in range(30)] == [
            paper.factor(w, k) for w in range(8) for k in range(30)
        ]

    def test_random_factor_and_probability_override(self, monkeypatch):
        model = self._slowdown(
            monkeypatch,
            "--scenario", "random",
            "--scenario-param", "factor=3.5",
            "--scenario-param", "probability=0.25",
        )
        assert (model.slow_factor, model.probability) == (3.5, 0.25)

    def test_straggler_default_matches_paper(self, monkeypatch):
        model = self._slowdown(monkeypatch, "--scenario", "straggler")
        assert model.factors == {0: 4.0}

    def test_straggler_factor_override(self, monkeypatch):
        model = self._slowdown(
            monkeypatch, "--scenario", "straggler", "--scenario-param", "factor=9"
        )
        assert model.factors == {0: 9.0}

    def test_multi_worker_straggler_map(self, monkeypatch):
        model = self._slowdown(
            monkeypatch,
            "--scenario", "straggler",
            "--scenario-param", 'workers={"0": 4, "3": 2.5, "5": 6}',
        )
        assert model.factors == {0: 4.0, 3: 2.5, 5: 6.0}

    @pytest.mark.parametrize(
        "argv",
        [
            ["--slowdown", "random"],
            ["--slowdown-factor", "2"],
            ["--slowdown-prob", "0.5"],
            ["--stragglers", "0:4"],
        ],
    )
    def test_slowdown_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--workers", "4", "--iterations", "4", *argv])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_scenario_param_without_scenario_is_an_error(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "train",
                    "--workers", "4",
                    "--iterations", "4",
                    "--scenario-param", "worker=2",
                ]
            )

    def test_train_runs_with_custom_knobs(self, capsys):
        code = main(
            [
                "train",
                "--workers", "6",
                "--iterations", "6",
                "--scenario", "random",
                "--scenario-param", "factor=2.0",
                "--scenario-param", "probability=0.5",
            ]
        )
        assert code == 0
        assert "wall_time" in capsys.readouterr().out

    def test_train_runs_with_multi_straggler(self, capsys):
        code = main(
            [
                "train",
                "--workers", "6",
                "--iterations", "6",
                "--scenario", "straggler",
                "--scenario-param", 'workers={"0": 3, "2": 2}',
            ]
        )
        assert code == 0
        assert "wall_time" in capsys.readouterr().out

    def test_run_summary_includes_fault_fields(self, tmp_path):
        code = main(
            [
                "train",
                "--workers", "6",
                "--iterations", "6",
                "--scenario", "lossy-net",
                "--scenario-param", "probability=0.2",
                "--out", str(tmp_path / "lossy.json"),
            ]
        )
        assert code == 0
        loaded = json.loads((tmp_path / "lossy.json").read_text())
        assert loaded["messages_dropped"] > 0
        assert loaded["fault_events"] == []


class TestRegistryJsonContract:
    """The --json tables are machine consumed (CI, the lint rules'
    shared source of truth): every row must carry the contract flags
    explicitly, never as an implied default."""

    PROTOCOL_FIELDS = {"name", "aliases", "summary", "paper", "elastic"}
    SCENARIO_FIELDS = {"name", "aliases", "summary", "paper", "universal"}

    def test_protocols_json_rows_declare_elastic(self, capsys):
        assert main(["protocols", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows
        for row in rows:
            assert self.PROTOCOL_FIELDS <= set(row), row["name"]
            assert isinstance(row["elastic"], bool)
        # Since the full-grid elasticity pass every built-in protocol
        # is elastic; a False here means a registration silently lost
        # its churn support.
        for row in rows:
            assert row["elastic"] is True, row["name"]

    def test_scenarios_json_rows_declare_universal(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows
        for row in rows:
            assert self.SCENARIO_FIELDS <= set(row), row["name"]
            assert isinstance(row["universal"], bool)
        by_name = {row["name"]: row for row in rows}
        assert by_name["none"]["universal"] is True
        assert by_name["churn"]["universal"] is False
