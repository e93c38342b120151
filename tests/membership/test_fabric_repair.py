"""Unit tests for the queue/gap/network fabric repairs behind churn."""

import numpy as np
import pytest

from repro.core.gap import GapTracker
from repro.core.queues import TokenGate, TokenQueue, UpdateQueue
from repro.core.update import Update
from repro.sim import Environment


class TestTokenQueueClose:
    def test_close_releases_pending_waiters(self):
        env = Environment()
        queue = TokenQueue(env, owner=1, consumer=0, initial=0)
        gate = TokenGate(env, [queue], 2)
        assert gate.pending() == [queue]
        queue.close()
        assert not gate.pending()

    def test_closed_queue_grants_future_acquires(self):
        env = Environment()
        queue = TokenQueue(env, owner=1, consumer=0, initial=0)
        queue.close()
        assert not TokenGate(env, [queue], 5).pending()

    def test_reopen_restores_gating(self):
        env = Environment()
        queue = TokenQueue(env, owner=1, consumer=0, initial=0)
        queue.close()
        queue.reopen(initial=1)
        granted = TokenGate(env, [queue], 1)
        assert not granted.pending()
        blocked = TokenGate(env, [queue], 1)
        assert blocked.pending() == [queue]
        queue.put(1)
        assert not blocked.pending()

    def test_conservation_survives_close_and_reopen(self):
        env = Environment()
        queue = TokenQueue(env, owner=1, consumer=0, initial=2)

        def conserved():
            return queue.size() == queue.total_inserted - queue.total_acquired

        TokenGate(env, [queue], 3)  # blocks: 2 < 3
        queue.close()  # granted free; the two tokens stay put
        assert queue.size() == 2 and conserved()
        TokenGate(env, [queue], 4)  # free while closed
        assert queue.size() == 2 and conserved()
        queue.reopen(initial=5)  # three short of the invariant count
        assert queue.size() == 5 and queue.peak == 5 and conserved()
        queue.close()
        queue.reopen(initial=1)  # a stale surplus of four is retired
        assert queue.size() == 1 and conserved()


@pytest.mark.parametrize("protocol", ["hop", "notify_ack"])
def test_every_queue_conserves_tokens_through_a_churn_run(protocol):
    """Leaves close queues with waiters parked on them and rejoins
    reopen them: 8 of hop's 12 queues (3 of notify_ack's) ended this
    cell with ``size() != total_inserted - total_acquired`` before
    closed grants and the reopen reset were booked."""
    from repro.harness.golden import churn_conformance_spec
    from repro.protocols.registry import build_cluster

    cluster = build_cluster(churn_conformance_spec(protocol, "churn"))
    cluster.run()
    worker = cluster._workers[0]
    queues = worker.token_queues if protocol == "hop" else worker.ack_queues
    assert any(queue.closed for queue in queues.values())
    for edge, queue in queues.items():
        conserved = queue.total_inserted - queue.total_acquired
        assert queue.size() == conserved, edge


class TestUpdateQueueResize:
    def test_resize_grows_and_shrinks(self):
        env = Environment()
        queue = UpdateQueue(env, owner=0, capacity=2)
        queue.resize(5)
        assert queue.capacity == 5
        queue.resize(1)
        assert queue.capacity == 1

    def test_resize_never_below_occupancy(self):
        env = Environment()
        queue = UpdateQueue(env, owner=0, capacity=4)
        for k in range(3):
            queue.enqueue(Update(np.zeros(2), 0, k))
        queue.resize(1)
        assert queue.capacity == 3  # entries already accepted stay

    def test_resize_none_unbounds(self):
        env = Environment()
        queue = UpdateQueue(env, owner=0, capacity=2)
        queue.resize(None)
        assert queue.capacity is None


class TestGapTrackerMembership:
    def test_deactivate_freezes_pairs(self):
        gap = GapTracker(3)
        gap.record(0, 4)
        gap.record(1, 1)
        frozen = gap.observed_gap(0, 1)
        gap.deactivate(1)
        gap.record(0, 9)
        # The (live, departed) pair stays at its both-live maximum.
        assert gap.observed_gap(0, 1) == frozen
        assert gap.max_observed() < GapTracker.INACTIVE_SENTINEL / 2

    def test_activate_resumes_from_iteration(self):
        gap = GapTracker(3)
        gap.deactivate(2)
        gap.record(0, 5)
        gap.activate(2, 7)
        gap.record(2, 7)
        assert gap.observed_gap(2, 0) == 2.0


class TestNetworkMembershipRouting:
    class FakeMembership:
        def __init__(self, inactive=()):
            self.inactive = set(inactive)
            self.messages_dropped = 0

        def is_active(self, wid):
            return wid not in self.inactive

    def test_in_flight_message_to_departed_is_dropped(self):
        from repro.net.links import uniform_links
        from repro.net.network import Network

        env = Environment()
        network = Network(env, uniform_links())
        membership = self.FakeMembership()
        network.membership = membership
        delivered = []
        network.push(0, 1, 100.0, "payload", delivered.append)
        # The receiver departs while the message is in flight.
        membership.inactive.add(1)
        env.run()
        assert delivered == []
        assert membership.messages_dropped == 1
        assert network.messages_dropped == 1

    def test_live_destination_still_delivers(self):
        from repro.net.links import uniform_links
        from repro.net.network import Network

        env = Environment()
        network = Network(env, uniform_links())
        network.membership = self.FakeMembership()
        delivered = []
        network.push(0, 1, 100.0, "payload", delivered.append)
        env.run()
        assert delivered == ["payload"]
        assert network.messages_dropped == 0
