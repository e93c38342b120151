"""Tests for workloads and experiment specs."""

import numpy as np
import pytest

from repro.core.config import backup_config, staleness_config
from repro.graphs import ring, ring_based
from repro.harness import (
    RANDOM_6X,
    ExperimentSpec,
    SlowdownSpec,
    by_name,
    cnn_workload,
    deterministic_straggler,
    run_spec,
    svm_workload,
)
from repro.hetero import DeterministicSlowdown, NoSlowdown, RandomSlowdown
from repro.scenarios import ScenarioSpec
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
    """A legacy recipe built the way runs build it (via the scenario)."""
    return ScenarioSpec.from_slowdown(spec).build(n_workers, RngStreams(0))


class TestSlowdownSpec:
    def test_none(self):
        scenario = build_slowdown(SlowdownSpec(), 4)
        assert isinstance(scenario.slowdown, NoSlowdown)

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
        assert build_slowdown(SlowdownSpec(), 4).describe() == "none"
        assert "6" in build_slowdown(RANDOM_6X, 4).describe()
        assert "0:4" in build_slowdown(deterministic_straggler(), 4).describe()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_slowdown(SlowdownSpec(kind="quantum"), 2)


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
