"""Tests for the scenario registry, ScenarioSpec and CLI integration."""

import json

import pytest

from repro.cli import main
from repro.graphs import ring_based
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import svm_workload
from repro.harness.spec import RANDOM_6X, deterministic_straggler
from repro.scenarios.models import DeterministicSlowdown, NoSlowdown, RandomSlowdown
from repro.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioSpec,
    get_scenario,
    register_scenario,
    registered_scenarios,
    scenario_table,
)
from repro.sim import RngStreams

#: Families the issue requires the registry to expose.
REQUIRED_FAMILIES = {
    "none",
    "random",
    "straggler",
    "bursty",
    "tiered",
    "diurnal",
    "trace",
    "crash",
    "crash-restart",
    "flaky-net",
    "lossy-net",
}


class TestRegistry:
    def test_all_builtins_registered(self):
        assert REQUIRED_FAMILIES <= set(registered_scenarios())

    def test_at_least_six_families(self):
        assert len(registered_scenarios()) >= 6

    def test_universal_excludes_permanent_crash(self):
        universal = set(registered_scenarios(universal_only=True))
        assert "crash" not in universal
        assert "crash-restart" in universal
        assert len(universal) >= 6

    def test_aliases_resolve(self):
        assert get_scenario("markov").name == "bursty"
        assert get_scenario("clean").name == "none"
        assert get_scenario("whimpy").name == "tiered"

    def test_unknown_scenario_error_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_scenario("sharknado")
        message = str(excinfo.value)
        assert "sharknado" in message
        for name in registered_scenarios(include_aliases=True):
            assert name in message

    def test_scenario_table_rows(self):
        rows = {row["name"]: row for row in scenario_table()}
        assert rows["bursty"]["aliases"] == "markov"
        assert "1909.08029" in rows["bursty"]["paper"]
        assert rows["crash"]["universal"] is False
        assert all(row["summary"] for row in rows.values())


class TestScenarioSpec:
    def test_every_family_builds(self):
        streams = RngStreams(0).spawn("slowdown")
        for family in registered_scenarios():
            scenario = ScenarioSpec(family).build(8, streams)
            assert scenario.slowdown.factor(0, 0) >= 1.0
            assert scenario.describe()

    @pytest.mark.parametrize("family", registered_scenarios())
    def test_a_knob_the_builder_never_reads_is_an_error(self, family):
        """A misspelled knob (``factr``) must not run the defaults."""
        with pytest.raises(
            ValueError,
            match=rf"scenario '{family}' does not take \['bogus_knob'\]",
        ):
            ScenarioSpec(family, {"bogus_knob": 1}).build(8, RngStreams(0))

    def test_unread_knobs_are_checked_in_nested_slowdowns_too(self):
        nested = {"slowdown": {"family": "random", "params": {"factr": 2}}}
        with pytest.raises(
            ValueError, match=r"scenario 'random' does not take \['factr'\]"
        ):
            ScenarioSpec("crash-restart", nested).build(8, RngStreams(0))
        # A straggler map makes the one-worker knobs unread, not ignored.
        with pytest.raises(ValueError, match=r"does not take \['factor'\]"):
            ScenarioSpec(
                "straggler", {"workers": {0: 4.0}, "factor": 2.0}
            ).build(8, RngStreams(0))

    def test_out_of_range_straggler_worker_rejected(self):
        """A straggler pinned to a nonexistent worker must fail loudly,
        not silently run a clean cluster (mirrors the crash families)."""
        streams = RngStreams(0)
        with pytest.raises(ValueError):
            ScenarioSpec("straggler", {"workers": {9: 4.0}}).build(4, streams)
        with pytest.raises(ValueError):
            ScenarioSpec("straggler", {"worker": -1}).build(4, streams)
        with pytest.raises(SystemExit):
            main(
                [
                    "train",
                    "--workers", "4",
                    "--iterations", "4",
                    "--scenario", "straggler",
                    "--scenario-param", 'workers={"9": 4}',
                ]
            )

    def test_serialization_round_trip(self):
        spec = ScenarioSpec(
            "straggler", {"workers": {0: 4.0, 3: 2.0}}
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        restored = ScenarioSpec.from_dict(payload)
        assert restored == spec

    def test_paper_recipes_build_their_models(self):
        """The paper's two recipes (and the clean cluster) build the
        models they name, draw-for-draw."""
        for recipe, model in (
            (ScenarioSpec(), lambda streams: NoSlowdown()),
            (RANDOM_6X, lambda streams: RandomSlowdown(streams, 6.0, 1 / 8)),
            (
                ScenarioSpec("random", {"factor": 3.0, "probability": 0.25}),
                lambda streams: RandomSlowdown(streams, 3.0, 0.25),
            ),
            (
                deterministic_straggler(worker=2, factor=5.0),
                lambda streams: DeterministicSlowdown({2: 5.0}),
            ),
        ):
            streams_a = RngStreams(7).spawn("slowdown")
            streams_b = RngStreams(7).spawn("slowdown")
            old = model(streams_a)
            new = recipe.build(8, streams_b)
            for worker in range(8):
                for k in range(20):
                    assert new.slowdown.factor(worker, k) == old.factor(
                        worker, k
                    )

    def test_straggler_recipe_drives_runs(self):
        spec = ExperimentSpec(
            "s",
            svm_workload("smoke"),
            ring_based(4),
            scenario=deterministic_straggler(worker=0, factor=6.0),
            max_iter=6,
        )
        run = run_spec(spec)
        durations = [
            s["iteration_duration_mean"] for s in run.worker_stats
        ]
        assert durations[0] == max(durations)


class TestExtensionPoint:
    """The docs/ARCHITECTURE.md add-a-scenario walkthrough, verified."""

    def test_register_and_run_a_custom_scenario(self):
        from repro.scenarios.models import SlowdownModel

        class EveryNthSlowdown(SlowdownModel):
            """Worker 0 is slow every nth iteration (a GC-pause model)."""

            def __init__(self, every: int = 4, factor: float = 8.0):
                self.every = every
                self.slow_factor = factor

            def factor(self, worker: int, iteration: int) -> float:
                if worker == 0 and iteration % self.every == 0:
                    return self.slow_factor
                return 1.0

            def describe(self) -> str:
                return f"gc-pause(every {self.every})"

        def build_gc_pause(params, n_workers, streams):
            return Scenario(
                "gc-pause",
                EveryNthSlowdown(
                    every=int(params.get("every", 4)),
                    factor=float(params.get("factor", 8.0)),
                ),
            )

        register_scenario(
            "gc-pause",
            build_gc_pause,
            summary="periodic stop-the-world pauses on worker 0",
            paper="n/a",
        )
        try:
            assert "gc-pause" in registered_scenarios()
            spec = ExperimentSpec(
                "gc",
                svm_workload("smoke"),
                ring_based(4),
                scenario=ScenarioSpec("gc-pause", {"every": 2}),
                max_iter=6,
            )
            run = run_spec(spec)
            assert all(c == 6 for c in run.iterations_completed)
            durations = [
                s["iteration_duration_mean"] for s in run.worker_stats
            ]
            assert durations[0] == max(durations)
        finally:
            SCENARIOS.remove("gc-pause")


class TestCLI:
    def test_scenarios_command_lists_registry(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for family in REQUIRED_FAMILIES:
            assert family in out
        assert "not universal" in out  # the permanent-crash caveat

    def test_train_with_scenario(self, capsys):
        code = main(
            [
                "train",
                "--workers", "6",
                "--iterations", "6",
                "--scenario", "crash-restart",
                "--scenario-param", "worker=2",
                "--scenario-param", "downtime_iters=4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "crashed w2" in out
        assert "restarted w2" in out

    def test_train_with_bursty_scenario_alias(self, capsys):
        assert (
            main(
                [
                    "train",
                    "--workers", "6",
                    "--iterations", "6",
                    "--scenario", "markov",
                ]
            )
            == 0
        )
        assert "wall_time" in capsys.readouterr().out

    def test_scenario_param_accepts_python_and_json_literals(self):
        from repro.cli import _param

        assert _param("resync=False") == ("resync", False)
        assert _param("resync=false") == ("resync", False)
        assert _param("resync=True") == ("resync", True)
        assert _param("probability=0.2") == ("probability", 0.2)
        assert _param("path=/tmp/t.json") == ("path", "/tmp/t.json")

    def test_train_scenario_param_false_disables_resync(self, capsys):
        code = main(
            [
                "train",
                "--workers", "6",
                "--iterations", "6",
                "--scenario", "crash-restart",
                "--scenario-param", "worker=2",
                "--scenario-param", "resync=False",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "restarted w2" in out
        assert "resynced" not in out

    def test_custom_protocol_with_native_faults_flag(self):
        """A downstream protocol that wires crash events natively must
        register native_faults=True and then NOT be double-charged."""
        from repro.protocols import get_protocol

        assert get_protocol("hop").native_faults is True
        assert get_protocol("allreduce").native_faults is False
        assert get_protocol("adpsgd").native_faults is False

    def test_train_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["train", "--scenario", "nope"])

    def test_train_rejects_malformed_scenario_param(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "train",
                    "--scenario", "bursty",
                    "--scenario-param", "no-equals-sign",
                ]
            )
