"""Failure injection and the Section 6.2 optimizations.

Covers behaviors the paper claims in prose:

* Section 3.4: backup workers tolerate slow workers "or even
  accidental node crashes" — and with token queues, the blast radius
  of a crash is *exactly* Theorem 2's bound: neighbors advance at most
  ``max_ig`` further iterations, then stop (no corruption, no
  deadlock crash).
* Section 6.2(b): inquiring the receiver's iteration before sending
  suppresses updates that would arrive stale.
* Section 4.4: the Eq. (2) weighted reduce vs the simple average.
"""

import numpy as np
import pytest

from repro.core import (
    HopCluster,
    HopConfig,
    STANDARD,
    StalenessRecv,
    TokenQueue,
    backup_config,
    staleness_config,
)
from repro.graphs import complete, ring, ring_based
from repro.scenarios.models import ComputeModel, DeterministicSlowdown
from repro.ml import build_svm, synthetic_webspam
from repro.ml.optim import SGD
from repro.protocols.base import DeadlockError
from repro.scenarios import CrashEvent


N_FEATURES = 16


@pytest.fixture(scope="module")
def dataset():
    return synthetic_webspam(
        np.random.default_rng(0), n_train=256, n_test=64, n_features=N_FEATURES
    )


def make_cluster(
    dataset, config, n=6, max_iter=30, slowdown=None, topology=None, **kwargs
):
    return HopCluster(
        topology=topology or ring_based(n),
        config=config,
        model_factory=lambda rng: build_svm(rng, N_FEATURES),
        dataset=dataset,
        optimizer=SGD(lr=0.5, momentum=0.9),
        compute_model=ComputeModel(
            base_time=0.05, n_workers=n, slowdown=slowdown
        ),
        max_iter=max_iter,
        seed=2,
        **kwargs,
    )


class TestCrashInjection:
    """A worker that halts cold mid-training (Section 3.4's crashes)."""

    def test_crash_halts_the_crashed_worker_only_initially(self, dataset):
        crash_iteration = 5
        run = make_cluster(
            dataset,
            backup_config(n_backup=1, max_ig=3),
            max_iter=20,
            crash_events={
                0: CrashEvent(worker=0, at_iteration=crash_iteration)
            },
        ).run()
        assert run.iterations_completed[0] == crash_iteration

    def test_blast_radius_is_exactly_max_ig(self, dataset):
        """Theorem 2 in action: neighbors of a crashed worker advance
        exactly ``crash_iteration + max_ig`` iterations, then stop."""
        crash_iteration, max_ig = 5, 3
        run = make_cluster(
            dataset,
            backup_config(n_backup=1, max_ig=max_ig),
            max_iter=50,  # far beyond what the crash allows
            crash_events={
                0: CrashEvent(worker=0, at_iteration=crash_iteration)
            },
        ).run()
        topo = ring_based(6)
        for neighbor in topo.out_neighbors(0, include_self=False):
            # The crashed worker inserted tokens for iterations
            # 0..crash-1 plus the initial max_ig - 1: neighbors enter
            # at most iteration crash + max_ig - 1 (completing it).
            assert run.iterations_completed[neighbor] == (
                crash_iteration + max_ig
            )

    def test_crash_before_end_does_not_affect_short_runs(self, dataset):
        """If training ends before the blast radius bites, all finish."""
        run = make_cluster(
            dataset,
            backup_config(n_backup=1, max_ig=4),
            max_iter=6,
            crash_events={0: CrashEvent(worker=0, at_iteration=3)},
        ).run()
        survivors = run.iterations_completed[1:]
        assert all(done == 6 for done in survivors)

    def test_standard_mode_without_crash_still_validates_deadlocks(
        self, dataset
    ):
        """Genuine deadlocks (no injected crash) still raise."""
        run = make_cluster(dataset, STANDARD, max_iter=10).run()
        assert run.iterations_completed == [10] * 6  # sanity: no deadlock

    def test_crash_only_supported_for_hop(self, dataset):
        with pytest.raises(ValueError, match="only supported for hop"):
            make_cluster(
                dataset,
                STANDARD,
                protocol="notify_ack",
                crash_events={0: CrashEvent(worker=0, at_iteration=2)},
            )

    def test_backup_mode_survives_a_slow_but_alive_worker(self, dataset):
        """A 20x straggler (alive, not crashed) does not deadlock."""
        run = make_cluster(
            dataset,
            backup_config(n_backup=1, max_ig=3),
            max_iter=15,
            slowdown=DeterministicSlowdown({0: 20.0}),
        ).run()
        assert run.iterations_completed == [15] * 6
        assert run.gap.max_observed() <= 3 * ring_based(6).diameter()


class TestDeadlockDiagnosis:
    def test_error_names_what_each_stuck_worker_waits_for(self, dataset):
        """Two workers, worker 1's tokens for worker 0 withheld: 0 runs
        out of tokens, 1 then starves for 0's updates, and the error
        says so for each instead of listing bare (wid, iter) pairs."""
        max_ig = 2
        cluster = make_cluster(
            dataset,
            HopConfig(max_ig=max_ig),
            n=2,
            max_iter=10,
            topology=complete(2),
        )

        start = cluster._start

        class WithheldTokenQueue(TokenQueue):
            """Its owner's inserts never arrive."""

            __slots__ = ()

            def put(self, count=1):
                pass

        def start_withholding(runtime):
            start(runtime)
            queue = cluster._workers[0].token_queues[(1, 0)]
            queue.__class__ = WithheldTokenQueue

        cluster._start = start_withholding
        with pytest.raises(DeadlockError) as caught:
            cluster.run()
        # Worker 0 spends the max_ig - 1 initial tokens and stops before
        # iteration max_ig; worker 1 finishes that iteration's compute
        # and waits for the update 0 never sends.
        assert caught.value.stuck == [(0, max_ig - 1), (1, max_ig)]
        message = str(caught.value)
        assert (
            f"worker 0 at iteration {max_ig - 1} on "
            "<TokenGate waiting for tokens from owners [1]>"
        ) in message
        assert (
            f"worker 1 at iteration {max_ig} on <DequeueRequest waiting "
            f"for update(s) of iteration {max_ig}: have 1 of 2>"
        ) in message
        # The whole message, byte for byte: a stuck process is parked,
        # not finished, so it still names what it waits on.
        assert message == (
            "2 workers never finished; (wid, iter) = [(0, 1), (1, 2)]. "
            "This indicates a protocol deadlock or an unsatisfiable advance "
            "condition. Blocked: worker 0 at iteration 1 on <TokenGate "
            "waiting for tokens from owners [1]>; worker 1 at iteration 2 "
            "on <DequeueRequest waiting for update(s) of iteration 2: have "
            "1 of 2>."
        )


class TestReceiverIterationCheck:
    """Section 6.2(b): suppress sends to receivers that moved on."""

    def test_suppression_counted_under_straggler(self, dataset):
        config = HopConfig(
            mode="backup",
            n_backup=1,
            max_ig=4,
            check_receiver_iteration=True,
        )
        run = make_cluster(
            dataset,
            config,
            max_iter=25,
            slowdown=DeterministicSlowdown({0: 6.0}),
        ).run()
        suppressed = sum(
            stats.get("n_suppressed_sends", 0) for stats in run.worker_stats
        )
        # The straggler's updates for old iterations get suppressed.
        assert suppressed > 0
        assert run.iterations_completed == [25] * 6

    def test_no_suppression_in_homogeneous_run(self, dataset):
        config = HopConfig(
            mode="backup", n_backup=1, max_ig=4, check_receiver_iteration=True
        )
        run = make_cluster(dataset, config, max_iter=20).run()
        suppressed = sum(
            stats.get("n_suppressed_sends", 0) for stats in run.worker_stats
        )
        assert suppressed == 0

    def test_convergence_unaffected(self, dataset):
        """Suppressed updates would have been dropped anyway."""
        base = make_cluster(
            dataset,
            backup_config(n_backup=1, max_ig=4),
            max_iter=25,
            slowdown=DeterministicSlowdown({0: 6.0}),
        ).run()
        checked = make_cluster(
            dataset,
            HopConfig(
                mode="backup",
                n_backup=1,
                max_ig=4,
                check_receiver_iteration=True,
            ),
            max_iter=25,
            slowdown=DeterministicSlowdown({0: 6.0}),
        ).run()
        _, base_losses = base.smoothed_loss_series(window=16)
        _, checked_losses = checked.smoothed_loss_series(window=16)
        assert checked_losses[-1] < base_losses[0]  # still converges
        # And strictly fewer parameter messages cross the network.
        assert checked.messages_sent <= base.messages_sent


class TestStaleReduceFlavors:
    def test_uniform_flavor_runs(self, dataset):
        config = staleness_config(staleness=3, max_ig=6, stale_reduce="uniform")
        run = make_cluster(dataset, config, max_iter=20).run()
        _, losses = run.smoothed_loss_series(window=16)
        assert losses[-1] < losses[0]

    def test_flavors_differ_numerically_under_slowdown(self, dataset):
        runs = {}
        for flavor in ("weighted", "uniform"):
            config = staleness_config(
                staleness=3, max_ig=6, stale_reduce=flavor
            )
            runs[flavor] = make_cluster(
                dataset,
                config,
                max_iter=20,
                slowdown=DeterministicSlowdown({0: 3.0}),
            ).run()
        # Same timing (aggregation doesn't change blocking) ...
        assert runs["weighted"].wall_time == runs["uniform"].wall_time
        # ... but different arithmetic once stale updates appear.
        assert not np.array_equal(
            runs["weighted"].final_params, runs["uniform"].final_params
        )

    def test_invalid_flavor_rejected(self):
        with pytest.raises(ValueError):
            staleness_config(stale_reduce="median")
        with pytest.raises(ValueError):
            StalenessRecv(2, reduce_flavor="median")
