"""Tests for the Recv/Reduce strategies against a minimal fake worker."""

import numpy as np
import pytest

from repro.core import (
    BackupRecv,
    StalenessRecv,
    StandardRecv,
    Update,
    UpdateQueue,
    backup_config,
    make_recv_strategy,
    staleness_config,
)
from repro.core.config import STANDARD
from repro.core.planes import EagerPlane
from repro.sim import Environment


class FakeWorker:
    """The slice of HopWorker the strategies interact with."""

    def __init__(self, env, in_neighbors, wid=0):
        self.env = env
        self.wid = wid
        self.in_neighbors = tuple(in_neighbors)
        self.in_degree = len(self.in_neighbors)
        self.update_queue = UpdateQueue(env, owner=wid)
        self.n_extra_updates = 0
        self.n_staleness_blocks = 0
        self.n_cache_hits = 0
        self.plane = EagerPlane(self)  # reduces only: no model needed
        # Membership-plane slice of the contract (static double).
        self.membership = None
        self._in_activation = {}

    def expected_in(self, iteration):
        return self.in_degree


def upd(iteration, sender, value):
    return Update(np.full(2, float(value)), iteration, sender)


def run_recv(env, strategy, worker, iteration):
    def proc():
        result = yield from strategy.recv_reduce(worker, iteration)
        return result

    return env.process(proc())


class TestStandardRecv:
    def test_waits_for_all_in_neighbors(self):
        env = Environment()
        worker = FakeWorker(env, in_neighbors=(0, 1, 2))
        strategy = StandardRecv()
        p = run_recv(env, strategy, worker, 0)
        worker.update_queue.enqueue(upd(0, 0, 3.0))
        worker.update_queue.enqueue(upd(0, 1, 6.0))
        env.run(until=1.0)
        assert not p.triggered
        worker.update_queue.enqueue(upd(0, 2, 9.0))
        env.run()
        assert np.allclose(p.value, 6.0)

    def test_ignores_other_iterations(self):
        env = Environment()
        worker = FakeWorker(env, in_neighbors=(0, 1))
        strategy = StandardRecv()
        p = run_recv(env, strategy, worker, 3)
        worker.update_queue.enqueue(upd(2, 0, 100.0))
        worker.update_queue.enqueue(upd(3, 0, 1.0))
        worker.update_queue.enqueue(upd(3, 1, 3.0))
        env.run()
        assert np.allclose(p.value, 2.0)


class TestBackupRecv:
    def test_advances_with_missing_neighbor(self):
        env = Environment()
        worker = FakeWorker(env, in_neighbors=(0, 1, 2))
        strategy = BackupRecv(n_backup=1)
        p = run_recv(env, strategy, worker, 0)
        worker.update_queue.enqueue(upd(0, 0, 2.0))
        worker.update_queue.enqueue(upd(0, 1, 4.0))
        env.run()
        # Only 2 of 3 updates needed; reduce averages what arrived.
        assert np.allclose(p.value, 3.0)

    def test_scoops_extra_updates(self):
        env = Environment()
        worker = FakeWorker(env, in_neighbors=(0, 1, 2))
        strategy = BackupRecv(n_backup=1)
        for sender, value in ((0, 1.0), (1, 2.0), (2, 6.0)):
            worker.update_queue.enqueue(upd(0, sender, value))
        p = run_recv(env, strategy, worker, 0)
        env.run()
        # All three arrived before the dequeue: all are used.
        assert np.allclose(p.value, 3.0)
        assert worker.n_extra_updates == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BackupRecv(0)
        env = Environment()
        worker = FakeWorker(env, in_neighbors=(0,))
        strategy = BackupRecv(1)
        with pytest.raises(ValueError, match="no required updates"):
            list(strategy.recv_reduce(worker, 0))


class TestStalenessRecv:
    def test_uses_cached_fresh_update_without_blocking(self):
        env = Environment()
        worker = FakeWorker(env, in_neighbors=(0, 1), wid=0)
        strategy = StalenessRecv(staleness=3)
        # Iteration 0: both neighbors deliver.
        worker.update_queue.enqueue(upd(0, 0, 1.0))
        worker.update_queue.enqueue(upd(0, 1, 1.0))
        p0 = run_recv(env, strategy, worker, 0)
        env.run()
        assert p0.triggered

        # Iteration 1: neighbor 1 silent; its cached iter-0 update is
        # within the bound (floor = 1 - 3 < 0), so no blocking.
        worker.update_queue.enqueue(upd(1, 0, 5.0))
        p1 = run_recv(env, strategy, worker, 1)
        env.run()
        assert p1.triggered
        # Only the newly received update contributes to the reduce.
        assert np.allclose(p1.value, 5.0)
        assert worker.n_cache_hits == 1

    def test_blocks_when_cache_too_stale(self):
        env = Environment()
        worker = FakeWorker(env, in_neighbors=(0, 1), wid=0)
        strategy = StalenessRecv(staleness=2)
        worker.update_queue.enqueue(upd(0, 0, 1.0))
        worker.update_queue.enqueue(upd(0, 1, 1.0))
        p0 = run_recv(env, strategy, worker, 0)
        env.run()

        # Iteration 5 with s=2: floor 3 > cached iteration 0 -> block.
        worker.update_queue.enqueue(upd(5, 0, 1.0))
        p5 = run_recv(env, strategy, worker, 5)
        env.run(until=1.0)
        assert not p5.triggered
        assert worker.n_staleness_blocks >= 1
        # A fresh-enough update releases it.
        worker.update_queue.enqueue(upd(4, 1, 3.0))
        env.run()
        assert p5.triggered

    def test_equation_2_weighting_applied(self):
        env = Environment()
        worker = FakeWorker(env, in_neighbors=(0, 1), wid=0)
        strategy = StalenessRecv(staleness=4)
        # Iteration 4, floor 0: fresh update (iter 4, weight 5) and
        # stale one (iter 0, weight 1).
        worker.update_queue.enqueue(upd(4, 0, 0.0))
        worker.update_queue.enqueue(upd(0, 1, 6.0))
        p = run_recv(env, strategy, worker, 4)
        env.run()
        assert np.allclose(p.value, (5 * 0.0 + 1 * 6.0) / 6.0)

    def test_keeps_only_newest_per_neighbor(self):
        env = Environment()
        worker = FakeWorker(env, in_neighbors=(0,), wid=0)
        strategy = StalenessRecv(staleness=3)
        worker.update_queue.enqueue(upd(0, 0, 100.0))
        worker.update_queue.enqueue(upd(2, 0, 7.0))
        p = run_recv(env, strategy, worker, 2)
        env.run()
        assert np.allclose(p.value, 7.0)

    def test_freshest_iteration_tracking(self):
        strategy = StalenessRecv(staleness=2)
        assert strategy.freshest_iteration(0) == -1
        strategy._absorb([upd(3, 0, 1.0)])
        assert strategy.freshest_iteration(0) == 3
        strategy._absorb([upd(1, 0, 1.0)])  # older: ignored
        assert strategy.freshest_iteration(0) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            StalenessRecv(0)


class TestFactory:
    def test_selects_by_mode(self):
        assert isinstance(make_recv_strategy(STANDARD), StandardRecv)
        assert isinstance(make_recv_strategy(backup_config(1)), BackupRecv)
        assert isinstance(
            make_recv_strategy(staleness_config(2)), StalenessRecv
        )
