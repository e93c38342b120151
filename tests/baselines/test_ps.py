"""Tests for the parameter-server baseline."""

import numpy as np
import pytest

from repro.baselines import ParameterServerCluster
from repro.graphs import ring_based
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import svm_workload
from repro.ml import build_svm, synthetic_webspam
from repro.ml.optim import SGD
from repro.scenarios import ScenarioSpec
from repro.scenarios.models import ComputeModel, DeterministicSlowdown


N_FEATURES = 24


@pytest.fixture(scope="module")
def dataset():
    return synthetic_webspam(
        np.random.default_rng(0), n_train=384, n_test=128, n_features=N_FEATURES
    )


def make_ps(dataset, mode="bsp", n=4, max_iter=20, **kwargs):
    kwargs.setdefault(
        "compute_model", ComputeModel(base_time=0.05, n_workers=n)
    )
    kwargs.setdefault("optimizer", SGD(lr=1.0, momentum=0.9))
    kwargs.setdefault("update_size", 0.5)
    return ParameterServerCluster(
        n,
        lambda rng: build_svm(rng, N_FEATURES),
        dataset,
        mode=mode,
        max_iter=max_iter,
        seed=1,
        **kwargs,
    )


class TestBSP:
    def test_completes_and_converges(self, dataset):
        run = make_ps(dataset, "bsp", max_iter=40).run()
        assert run.protocol == "ps-bsp"
        _, losses = run.smoothed_loss_series(window=16)
        assert losses[-1] < losses[0]

    def test_workers_locked_to_same_iteration(self, dataset):
        run = make_ps(dataset, "bsp").run()
        # BSP: max gap between any two workers is 1 (pull boundaries).
        assert run.gap.max_observed() <= 1.0

    def test_straggler_slows_everyone(self, dataset):
        fast = make_ps(dataset, "bsp").run()
        slow = make_ps(
            dataset,
            "bsp",
            compute_model=ComputeModel(
                base_time=0.05,
                n_workers=4,
                slowdown=DeterministicSlowdown({0: 4.0}),
            ),
        ).run()
        assert slow.wall_time > 1.5 * fast.wall_time

    def test_backup_workers_mask_straggler(self, dataset):
        slow_model = lambda: ComputeModel(  # noqa: E731
            base_time=0.05,
            n_workers=4,
            slowdown=DeterministicSlowdown({0: 4.0}),
        )
        plain = make_ps(dataset, "bsp", compute_model=slow_model()).run()
        backup = make_ps(
            dataset, "bsp", n_backup=1, compute_model=slow_model()
        ).run()
        assert backup.wall_time < plain.wall_time

    @pytest.mark.parametrize("n, seed", [(6, 2), (8, 1)])
    def test_backup_quorum_shrinks_when_a_worker_retires(self, n, seed):
        """A worker that finishes its last round after the server went
        idle shrinks the BSP quorum to the gradients already pending;
        the server must fold them instead of waiting for an arrival
        that never comes."""
        run = run_spec(
            ExperimentSpec(
                "bsp-backup",
                svm_workload("smoke"),
                ring_based(n),
                protocol="ps-bsp",
                ps_backup=1,
                scenario=ScenarioSpec("random"),
                max_iter=5,
                seed=seed,
            )
        )
        assert run.iterations_completed == [5] * n

    def test_hotspot_scales_with_workers(self, dataset):
        few = make_ps(dataset, "bsp", n=2, update_size=4.0).run()
        many = make_ps(dataset, "bsp", n=8, update_size=4.0).run()
        # Serialized PS NIC: more workers -> longer iterations.
        assert many.wall_time > few.wall_time


class TestAsync:
    def test_completes(self, dataset):
        run = make_ps(dataset, "async").run()
        assert all(i == 20 for i in run.iterations_completed)

    def test_straggler_does_not_block_others(self, dataset):
        run = make_ps(
            dataset,
            "async",
            compute_model=ComputeModel(
                base_time=0.05,
                n_workers=4,
                slowdown=DeterministicSlowdown({0: 10.0}),
            ),
        ).run()
        # Fast workers race ahead: large observed iteration gap.
        assert run.gap.max_observed() > 1.0


class TestSSP:
    def test_staleness_bound_enforced(self, dataset):
        run = make_ps(
            dataset,
            "ssp",
            staleness=2,
            compute_model=ComputeModel(
                base_time=0.05,
                n_workers=4,
                slowdown=DeterministicSlowdown({0: 6.0}),
            ),
        ).run()
        # Global bound: fastest - slowest <= s + 1 (one in-flight pull).
        assert run.gap.max_observed() <= 3.0

    def test_needs_staleness_parameter(self, dataset):
        with pytest.raises(ValueError):
            make_ps(dataset, "ssp", staleness=0)


class TestValidation:
    def test_unknown_mode(self, dataset):
        with pytest.raises(ValueError):
            make_ps(dataset, "turbo")

    def test_backup_bounds(self, dataset):
        with pytest.raises(ValueError):
            make_ps(dataset, "bsp", n_backup=4)

    def test_deterministic(self, dataset):
        a = make_ps(dataset, "bsp").run()
        b = make_ps(dataset, "bsp").run()
        assert a.wall_time == b.wall_time
        assert np.array_equal(a.final_params, b.final_params)


class TestElasticInFlightDrops:
    """Regression: a push already in flight toward a shard owner that
    departs mid-transfer must be counted in ``messages_dropped`` and
    re-addressed against the re-sharded owner map — never enqueued into
    a dead inbox, never deadlocking the fold barrier.

    The straggling leaver opens the window: fast workers launch fat
    (slow-to-transfer) pushes addressed to worker 3's shard while its
    departure is being enacted.
    """

    def _churned(self, dataset, mode, **kwargs):
        from repro.membership import ChurnEvent, ChurnPlan

        return make_ps(
            dataset,
            mode,
            max_iter=12,
            compute_model=ComputeModel(
                base_time=0.05,
                n_workers=4,
                slowdown=DeterministicSlowdown({3: 2.0}),
            ),
            update_size=8.0,
            churn=ChurnPlan(events=(ChurnEvent(worker=3, leave_at=3),)),
            **kwargs,
        )

    @pytest.mark.parametrize(
        "mode,extra", [("async", {}), ("ssp", {"staleness": 2})]
    )
    def test_in_flight_pushes_to_departed_owner_are_dropped(
        self, dataset, mode, extra
    ):
        run = self._churned(dataset, mode, **extra).run()
        assert run.iterations_completed == [12, 12, 12, 3]
        assert run.messages_dropped > 0
        kinds = [e["kind"] for e in run.membership_events]
        assert "reshard" in kinds
        assert np.isfinite(run.final_params).all()

    def test_bsp_barrier_survives_the_departure(self, dataset):
        # The same window under BSP: the fold quorum re-derives from
        # the shrunk live set, so the barrier never waits on the
        # departed worker's gradient.
        run = self._churned(dataset, "bsp").run()
        assert run.iterations_completed == [12, 12, 12, 3]
        assert run.messages_dropped >= 0

    @pytest.mark.parametrize(
        "mode,extra", [("async", {}), ("ssp", {"staleness": 2})]
    )
    def test_drop_accounting_is_deterministic(self, dataset, mode, extra):
        a = self._churned(dataset, mode, **extra).run()
        b = self._churned(dataset, mode, **extra).run()
        assert a.messages_dropped == b.messages_dropped
        assert a.wall_time == b.wall_time
        assert np.array_equal(a.final_params, b.final_params)
