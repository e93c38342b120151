"""Tests for workloads and experiment specs."""

import numpy as np
import pytest

from repro.core.config import backup_config, staleness_config
from repro.graphs import ring, ring_based
from repro.harness.spec import (
    RANDOM_6X,
    ExperimentSpec,
    deterministic_straggler,
    run_spec,
)
from repro.harness.workloads import by_name, cnn_workload, svm_workload
from repro.harness.golden import run_fingerprint
from repro.scenarios import ScenarioSpec
from repro.scenarios.models import DeterministicSlowdown, NoSlowdown, RandomSlowdown
from repro.sim import RngStreams


class TestWorkloads:
    def test_cnn_builds_consistent_models(self):
        workload = cnn_workload("smoke")
        a = workload.model_factory(np.random.default_rng(1))
        b = workload.model_factory(np.random.default_rng(1))
        assert np.array_equal(a.get_params(), b.get_params())

    def test_svm_gradient_works(self):
        workload = svm_workload("smoke")
        model = workload.model_factory(np.random.default_rng(0))
        x = workload.dataset.x_train[: workload.batch_size]
        y = workload.dataset.y_train[: workload.batch_size]
        loss, grad = model.loss_and_grad(x, y)
        assert loss > 0 and grad.shape == (model.dim,)

    def test_presets_scale_dataset(self):
        small = cnn_workload("smoke")
        large = cnn_workload("paper")
        assert large.dataset.n_train > small.dataset.n_train

    def test_by_name(self):
        assert by_name("cnn", "smoke").name == "cnn"
        assert by_name("svm", "smoke").name == "svm"
        with pytest.raises(ValueError):
            by_name("transformer", "smoke")
        with pytest.raises(ValueError):
            cnn_workload("gigantic")

    def test_target_loss_preset_aware(self):
        assert cnn_workload("smoke").target_loss > cnn_workload("paper").target_loss


def build_slowdown(spec, n_workers):
    """A recipe built the way runs build it."""
    return spec.build(n_workers, RngStreams(0))


class TestPaperRecipes:
    def test_constants_are_scenario_specs(self):
        assert RANDOM_6X == ScenarioSpec("random", {"factor": 6.0})
        assert deterministic_straggler(3, 2.5) == ScenarioSpec(
            "straggler", {"workers": {3: 2.5}}
        )

    def test_none(self):
        spec = ExperimentSpec("n", svm_workload("smoke"), ring(4))
        assert spec.scenario is None
        assert isinstance(spec.built_scenario().slowdown, NoSlowdown)

    def test_random_defaults_probability_to_1_over_n(self):
        model = build_slowdown(RANDOM_6X, 16).slowdown
        assert isinstance(model, RandomSlowdown)
        assert model.probability == pytest.approx(1 / 16)
        assert model.slow_factor == 6.0

    def test_deterministic(self):
        spec = deterministic_straggler(worker=3, factor=4.0)
        model = build_slowdown(spec, 8).slowdown
        assert isinstance(model, DeterministicSlowdown)
        assert model.factor(3, 0) == 4.0

    def test_describe(self):
        assert build_slowdown(ScenarioSpec(), 4).describe() == "none"
        assert "6" in build_slowdown(RANDOM_6X, 4).describe()
        assert "0:4" in build_slowdown(deterministic_straggler(), 4).describe()


class TestSlowdownAlias:
    """``slowdown=`` is a constructor-only spelling of ``scenario=``."""

    @pytest.fixture(scope="class")
    def fields(self):
        return dict(
            name="a", workload=svm_workload("smoke"), topology=ring(4),
            max_iter=4,
        )

    def test_alias_is_the_same_spec(self, fields):
        for recipe in (RANDOM_6X, deterministic_straggler(1, 3.0)):
            aliased = ExperimentSpec(**fields, slowdown=recipe)
            assert aliased == ExperimentSpec(**fields, scenario=recipe)
            assert aliased.scenario is recipe

    def test_alias_runs_the_same_cell(self, fields):
        aliased = run_spec(ExperimentSpec(**fields, slowdown=RANDOM_6X))
        direct = run_spec(ExperimentSpec(**fields, scenario=RANDOM_6X))
        assert run_fingerprint(aliased) == run_fingerprint(direct)

    def test_with_keeps_the_scenario(self, fields):
        spec = ExperimentSpec(**fields, slowdown=RANDOM_6X)
        assert spec.with_(seed=3).scenario == RANDOM_6X
        assert spec.with_().scenario == RANDOM_6X

    def test_both_raise(self, fields):
        with pytest.raises(ValueError, match="not both"):
            ExperimentSpec(**fields, scenario=RANDOM_6X, slowdown=RANDOM_6X)


class TestRunSpec:
    @pytest.fixture(scope="class")
    def workload(self):
        return svm_workload("smoke")

    def test_hop_protocol(self, workload):
        spec = ExperimentSpec(
            "t", workload, ring_based(8), max_iter=10, seed=0
        )
        run = run_spec(spec)
        assert run.protocol == "hop"
        assert run.iterations_completed == [10] * 8
        # A shorter budget ends earlier; two backups or a staleness
        # bound of 3 still run every iteration.
        assert run_spec(spec.with_(max_iter=5)).wall_time < run.wall_time
        for config in (
            backup_config(n_backup=2, max_ig=4),
            staleness_config(staleness=3, max_ig=6),
        ):
            assert run_spec(spec.with_(config=config)).iterations_completed == [10] * 8

    def test_all_protocols_run(self, workload):
        from repro.graphs import bipartite_ring

        for protocol in ("notify_ack", "ps-bsp", "ps-async", "allreduce"):
            spec = ExperimentSpec(
                protocol,
                workload,
                ring_based(8),
                protocol=protocol,
                max_iter=5,
                seed=0,
            )
            run = run_spec(spec)
            assert run.wall_time > 0

        spec = ExperimentSpec(
            "adpsgd",
            workload,
            bipartite_ring(8),
            protocol="adpsgd",
            max_iter=5,
            seed=0,
        )
        assert run_spec(spec).protocol == "adpsgd"

    def test_ssp_needs_staleness(self, workload):
        spec = ExperimentSpec(
            "ssp",
            workload,
            ring(4),
            protocol="ps-ssp",
            ps_staleness=2,
            max_iter=5,
        )
        assert run_spec(spec).protocol == "ps-ssp"

    def test_unknown_protocol(self, workload):
        spec = ExperimentSpec(
            "x", workload, ring(4), protocol="telepathy", max_iter=5
        )
        with pytest.raises(ValueError):
            run_spec(spec)

    def test_with_returns_modified_copy(self, workload):
        spec = ExperimentSpec("a", workload, ring(4), max_iter=5)
        other = spec.with_(max_iter=9, seed=3)
        assert other.max_iter == 9 and other.seed == 3
        assert spec.max_iter == 5
