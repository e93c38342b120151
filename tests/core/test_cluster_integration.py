"""End-to-end protocol tests: full training runs on the simulator.

These are the load-bearing tests: every protocol variant must run
deadlock-free, converge, and respect its iteration-gap bound.
"""

import numpy as np
import pytest

from repro.core import (
    HopCluster,
    HopConfig,
    STANDARD,
    SkipConfig,
    backup_config,
    gap_bound_matrix,
    staleness_config,
)
from repro.graphs import chain, ring, ring_based
from repro.scenarios.models import (
    ComputeModel,
    DeterministicSlowdown,
    RandomSlowdown,
)
from repro.ml import build_svm, synthetic_webspam
from repro.ml.optim import SGD
from repro.sim import RngStreams


N_FEATURES = 24


@pytest.fixture(scope="module")
def dataset():
    return synthetic_webspam(
        np.random.default_rng(0),
        n_train=384,
        n_test=128,
        n_features=N_FEATURES,
    )


def make_cluster(
    dataset,
    config=STANDARD,
    topology=None,
    protocol="hop",
    slowdown=None,
    n=8,
    max_iter=30,
    seed=1,
    **kwargs,
):
    topology = topology or ring_based(n)
    compute = ComputeModel(
        base_time=0.05, n_workers=topology.n, slowdown=slowdown
    )
    return HopCluster(
        topology=topology,
        config=config,
        model_factory=lambda rng: build_svm(rng, N_FEATURES),
        dataset=dataset,
        optimizer=SGD(lr=1.0, momentum=0.9, weight_decay=1e-7),
        compute_model=compute,
        protocol=protocol,
        max_iter=max_iter,
        seed=seed,
        **kwargs,
    )


class TestStandardProtocol:
    def test_all_workers_complete(self, dataset):
        run = make_cluster(dataset).run()
        assert run.iterations_completed == [30] * 8

    def test_loss_decreases(self, dataset):
        run = make_cluster(dataset, max_iter=50).run()
        _, losses = run.smoothed_loss_series(window=16)
        assert losses[-1] < 0.7 * losses[0]

    def test_gap_respects_theorem_2(self, dataset):
        run = make_cluster(dataset, config=HopConfig(max_ig=3)).run()
        bounds = gap_bound_matrix(
            ring_based(8), "standard+tokens", max_ig=3
        )
        assert run.gap.violations(bounds) == {}

    def test_gap_respects_theorem_1_without_tokens(self, dataset):
        config = HopConfig(use_token_queues=False)
        run = make_cluster(dataset, config=config).run()
        bounds = gap_bound_matrix(ring_based(8), "standard")
        assert run.gap.violations(bounds) == {}

    def test_deterministic_given_seed(self, dataset):
        run_a = make_cluster(dataset, seed=5).run()
        run_b = make_cluster(dataset, seed=5).run()
        assert run_a.wall_time == run_b.wall_time
        assert np.array_equal(run_a.final_params, run_b.final_params)
        assert run_a.final_loss == run_b.final_loss

    def test_different_seeds_differ(self, dataset):
        run_a = make_cluster(dataset, seed=5).run()
        run_b = make_cluster(dataset, seed=6).run()
        assert not np.array_equal(run_a.final_params, run_b.final_params)

    def test_workers_reach_consensus(self, dataset):
        run = make_cluster(dataset, max_iter=60).run()
        # Final replicas should be close (gossip averaging works).
        scale = float(np.linalg.norm(run.final_params)) + 1e-9
        assert run.consensus / scale < 0.2

    def test_serial_computation_graph_runs(self, dataset):
        config = HopConfig(computation_graph="serial")
        run = make_cluster(dataset, config=config, max_iter=40).run()
        _, losses = run.smoothed_loss_series(window=16)
        assert losses[-1] < losses[0]

    def test_tagged_queue_impl_equivalent_wall_time(self, dataset):
        rotating = make_cluster(
            dataset, config=HopConfig(queue_impl="rotating")
        ).run()
        tagged = make_cluster(
            dataset, config=HopConfig(queue_impl="tagged")
        ).run()
        assert rotating.wall_time == pytest.approx(tagged.wall_time)
        assert np.allclose(rotating.final_params, tagged.final_params)

    def test_bounded_update_queues_do_not_overflow(self, dataset):
        config = HopConfig(
            queue_impl="tagged", bound_update_queues=True, max_ig=3
        )
        run = make_cluster(dataset, config=config).run()  # no OverflowError
        assert run.wall_time > 0


class TestBackupWorkers:
    def test_runs_and_converges(self, dataset):
        run = make_cluster(dataset, config=backup_config(1, 4)).run()
        _, losses = run.smoothed_loss_series(window=16)
        assert losses[-1] < losses[0]

    def test_faster_than_standard_under_random_slowdown(self, dataset):
        n = 8
        slow = lambda: RandomSlowdown(  # noqa: E731
            RngStreams(11), factor=6.0, probability=1.0 / n
        )
        std = make_cluster(
            dataset, config=STANDARD, slowdown=slow(), max_iter=40
        ).run()
        bkp = make_cluster(
            dataset, config=backup_config(1, 4), slowdown=slow(), max_iter=40
        ).run()
        assert bkp.wall_time < std.wall_time

    def test_gap_respects_token_bound(self, dataset):
        slow = RandomSlowdown(RngStreams(3), factor=6.0, probability=0.2)
        run = make_cluster(
            dataset, config=backup_config(1, 3), slowdown=slow, max_iter=40
        ).run()
        bounds = gap_bound_matrix(ring_based(8), "backup+tokens", max_ig=3)
        assert run.gap.violations(bounds) == {}

    def test_rejects_excessive_backup_count(self, dataset):
        # ring(8) has in-degree 3 (with self); n_backup=3 leaves zero.
        with pytest.raises(ValueError, match="n_backup"):
            make_cluster(
                dataset,
                topology=ring(8),
                config=backup_config(3, 4),
            )

    def test_extra_updates_counted(self, dataset):
        run = make_cluster(dataset, config=backup_config(1, 4)).run()
        total_extra = sum(
            stats.get("n_extra_updates", 0) for stats in run.worker_stats
        )
        assert total_extra > 0  # homogeneous: extras arrive constantly


class TestBoundedStaleness:
    def test_runs_and_converges(self, dataset):
        run = make_cluster(dataset, config=staleness_config(3, 6)).run()
        _, losses = run.smoothed_loss_series(window=16)
        assert losses[-1] < losses[0]

    def test_faster_than_standard_under_random_slowdown(self, dataset):
        n = 8
        slow = lambda: RandomSlowdown(  # noqa: E731
            RngStreams(13), factor=6.0, probability=1.0 / n
        )
        std = make_cluster(
            dataset, config=STANDARD, slowdown=slow(), max_iter=40
        ).run()
        stale = make_cluster(
            dataset,
            config=staleness_config(5, 8),
            slowdown=slow(),
            max_iter=40,
        ).run()
        assert stale.wall_time < std.wall_time

    def test_gap_respects_staleness_token_bound(self, dataset):
        slow = RandomSlowdown(RngStreams(17), factor=6.0, probability=0.2)
        run = make_cluster(
            dataset,
            config=staleness_config(2, 4),
            slowdown=slow,
            max_iter=40,
        ).run()
        bounds = gap_bound_matrix(
            ring_based(8), "staleness+tokens", max_ig=4, staleness=2
        )
        assert run.gap.violations(bounds) == {}


class TestSkippingIterations:
    def test_straggler_skips_and_cluster_speeds_up(self, dataset):
        slow = DeterministicSlowdown({0: 4.0})
        no_skip = make_cluster(
            dataset,
            config=backup_config(1, 5),
            slowdown=slow,
            max_iter=40,
        ).run()
        with_skip = make_cluster(
            dataset,
            config=backup_config(
                1, 5, skip=SkipConfig(max_skip=10, trigger_lag=2)
            ),
            slowdown=slow,
            max_iter=40,
        ).run()
        assert with_skip.wall_time < no_skip.wall_time
        assert with_skip.iterations_skipped[0] > 0
        # Only the straggler skips.
        assert sum(with_skip.iterations_skipped[1:]) == 0

    def test_skip_with_staleness_mode(self, dataset):
        slow = DeterministicSlowdown({2: 4.0})
        run = make_cluster(
            dataset,
            config=staleness_config(
                4, 5, skip=SkipConfig(max_skip=10, trigger_lag=2)
            ),
            slowdown=slow,
            max_iter=40,
        ).run()
        assert run.iterations_skipped[2] > 0
        _, losses = run.smoothed_loss_series(window=16)
        assert losses[-1] < losses[0]

    def test_straggler_iteration_duration_tamed(self, dataset):
        """Figure 18's shape: skipping cuts effective iteration time."""
        slow = DeterministicSlowdown({0: 4.0})
        no_skip = make_cluster(
            dataset, config=backup_config(1, 5), slowdown=slow, max_iter=40
        ).run()
        with_skip = make_cluster(
            dataset,
            config=backup_config(
                1, 5, skip=SkipConfig(max_skip=10, trigger_lag=2)
            ),
            slowdown=slow,
            max_iter=40,
        ).run()
        # Mean iteration duration of the non-straggler workers drops.
        def healthy_mean(run):
            return np.mean(
                [
                    s["iteration_duration_mean"]
                    for s in run.worker_stats
                    if s["wid"] != 0
                ]
            )

        assert healthy_mean(with_skip) < healthy_mean(no_skip)


class TestNotifyAck:
    def test_runs_and_converges(self, dataset):
        run = make_cluster(dataset, protocol="notify_ack").run()
        assert run.protocol == "notify_ack"
        _, losses = run.smoothed_loss_series(window=16)
        assert losses[-1] < losses[0]

    def test_gap_respects_notify_ack_bound(self, dataset):
        slow = RandomSlowdown(RngStreams(23), factor=6.0, probability=0.2)
        run = make_cluster(
            dataset, protocol="notify_ack", slowdown=slow, max_iter=40
        ).run()
        bounds = gap_bound_matrix(ring_based(8), "notify_ack")
        assert run.gap.violations(bounds) == {}

    def test_hop_beats_notify_ack_under_slowdown(self, dataset):
        """The paper's motivating claim (Section 3.3)."""
        slow = lambda: RandomSlowdown(  # noqa: E731
            RngStreams(29), factor=6.0, probability=0.15
        )
        ack = make_cluster(
            dataset, protocol="notify_ack", slowdown=slow(), max_iter=40
        ).run()
        hop = make_cluster(
            dataset,
            config=backup_config(1, 4),
            slowdown=slow(),
            max_iter=40,
        ).run()
        assert hop.wall_time < ack.wall_time


class TestTrainingRunAnalysis:
    def test_loss_series_sorted(self, dataset):
        run = make_cluster(dataset).run()
        times, losses = run.loss_series()
        assert times.size == 8 * 30
        assert np.all(np.diff(times) >= 0)

    def test_time_to_loss_monotone_in_target(self, dataset):
        run = make_cluster(dataset, max_iter=50).run()
        t_easy = run.time_to_loss(0.6)
        t_hard = run.time_to_loss(0.4)
        assert t_easy <= t_hard

    def test_time_to_unreachable_loss_is_inf(self, dataset):
        run = make_cluster(dataset).run()
        assert run.time_to_loss(0.0) == float("inf")

    def test_iteration_rate_positive(self, dataset):
        run = make_cluster(dataset).run()
        assert run.iteration_rate() > 0

    def test_loss_vs_steps_axis(self, dataset):
        run = make_cluster(dataset).run()
        steps, losses = run.loss_vs_steps()
        assert steps.size == losses.size == 8 * 30

    def test_summary_mentions_protocol(self, dataset):
        run = make_cluster(dataset).run()
        assert "hop" in run.summary()

    def test_worker_stats_complete(self, dataset):
        run = make_cluster(dataset).run()
        assert len(run.worker_stats) == 8
        for stats in run.worker_stats:
            assert stats["iterations_completed"] == 30


class TestClusterValidation:
    def test_unknown_protocol(self, dataset):
        with pytest.raises(ValueError):
            make_cluster(dataset, protocol="gossip")

    def test_bad_max_iter(self, dataset):
        with pytest.raises(ValueError):
            make_cluster(dataset, max_iter=0)

    def test_chain_topology_works(self, dataset):
        run = make_cluster(dataset, topology=chain(6), max_iter=20).run()
        assert run.iterations_completed == [20] * 6

    @pytest.mark.parametrize(
        "nudge, accepted",
        [(0.0, True), (1e-12, True), (1e-3, False), (np.nan, False)],
    )
    def test_replicas_must_start_from_the_same_parameters(
        self, dataset, nudge, accepted
    ):
        """Bitwise-equal replicas pass on the cheap test; unequal ones
        get the ``allclose`` verdict they always got.  A replaying run
        builds no replicas, and its witness gets the same verdict."""
        cluster = make_cluster(dataset, n=4)
        built = []

        def factory(rng):
            model = build_svm(rng, N_FEATURES)
            if built:  # every replica after the first is nudged
                model.set_params(model.get_params() + nudge)
            built.append(model)
            return model

        cluster.model_factory = factory
        if accepted:
            assert len(cluster._build_models()) == 4
        else:
            with pytest.raises(ValueError, match="must be deterministic"):
                cluster._build_models()

        built.clear()
        replaying = make_cluster(dataset, n=4, max_iter=2)
        replaying.model_factory = factory
        if accepted:
            replaying.run()
            assert replaying.record is not None and len(built) == 2
        else:
            with pytest.raises(ValueError, match="must be deterministic"):
                replaying.run()
