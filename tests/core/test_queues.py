"""Tests for Hop's update queues (tagged + rotating) and token queues."""

import numpy as np
import pytest

from repro.core import (
    RotatingUpdateQueue,
    TokenGate,
    TokenQueue,
    Update,
    UpdateQueue,
)
from repro.sim import Environment


def upd(iteration, sender, value=0.0):
    return Update(np.full(3, value), iteration, sender)


class TestUpdate:
    def test_matches_tags(self):
        u = upd(3, 1)
        assert u.matches()
        assert u.matches(iteration=3)
        assert u.matches(sender=1)
        assert u.matches(iteration=3, sender=1)
        assert not u.matches(iteration=4)
        assert not u.matches(sender=2)

    def test_identity_equality(self):
        a, b = upd(0, 0), upd(0, 0)
        assert a != b
        assert a == a


class TestUpdateQueue:
    def test_dequeue_blocks_until_count_available(self):
        env = Environment()
        queue = UpdateQueue(env)
        got = []

        def consumer(env, queue):
            updates = yield queue.dequeue(2, iteration=0)
            got.append((env.now, len(updates)))

        env.process(consumer(env, queue))
        queue.enqueue(upd(0, 1))
        env.run(until=1.0)
        assert got == []
        queue.enqueue(upd(0, 2))
        env.run()
        assert got == [(1.0, 2)]

    def test_tag_matching_iteration(self):
        env = Environment()
        queue = UpdateQueue(env)
        queue.enqueue(upd(1, 0))
        queue.enqueue(upd(0, 1))
        queue.enqueue(upd(0, 2))

        def consumer(env, queue):
            return (yield queue.dequeue(2, iteration=0))

        p = env.process(consumer(env, queue))
        env.run()
        assert [u.sender for u in p.value] == [1, 2]
        assert queue.size() == 1  # the iteration-1 update remains

    def test_tag_matching_sender(self):
        env = Environment()
        queue = UpdateQueue(env)
        queue.enqueue(upd(0, 5))
        queue.enqueue(upd(1, 5))
        queue.enqueue(upd(0, 6))

        def consumer(env, queue):
            return (yield queue.dequeue(2, sender=5))

        p = env.process(consumer(env, queue))
        env.run()
        assert [u.iteration for u in p.value] == [0, 1]

    def test_untagged_dequeue_takes_fifo(self):
        env = Environment()
        queue = UpdateQueue(env)
        for k in (3, 1, 2):
            queue.enqueue(upd(k, 0))

        def consumer(env, queue):
            return (yield queue.dequeue(2))

        p = env.process(consumer(env, queue))
        env.run()
        assert [u.iteration for u in p.value] == [3, 1]

    def test_dequeue_available_nonblocking(self):
        env = Environment()
        queue = UpdateQueue(env)
        queue.enqueue(upd(0, 1))
        queue.enqueue(upd(0, 2))
        queue.enqueue(upd(1, 3))
        extra = queue.dequeue_available(iteration=0)
        assert [u.sender for u in extra] == [1, 2]
        assert queue.dequeue_available(iteration=0) == []

    def test_dequeue_available_with_limit(self):
        env = Environment()
        queue = UpdateQueue(env)
        for sender in range(4):
            queue.enqueue(upd(0, sender))
        taken = queue.dequeue_available(iteration=0, limit=2)
        assert len(taken) == 2
        assert queue.size(iteration=0) == 2

    def test_size_with_tags(self):
        env = Environment()
        queue = UpdateQueue(env)
        queue.enqueue(upd(0, 1))
        queue.enqueue(upd(0, 2))
        queue.enqueue(upd(1, 1))
        assert queue.size() == 3
        assert queue.size(iteration=0) == 2
        assert queue.size(sender=1) == 2
        assert queue.size(iteration=1, sender=1) == 1

    def test_capacity_overflow_raises(self):
        env = Environment()
        queue = UpdateQueue(env, capacity=2)
        queue.enqueue(upd(0, 0))
        queue.enqueue(upd(0, 1))
        with pytest.raises(OverflowError):
            queue.enqueue(upd(0, 2))

    def test_discard_older_than(self):
        env = Environment()
        queue = UpdateQueue(env)
        for k in range(5):
            queue.enqueue(upd(k, 0))
        dropped = queue.discard_older_than(3)
        assert dropped == 3
        assert queue.size() == 2
        assert queue.dropped_stale == 3

    def test_peak_occupancy_tracked(self):
        env = Environment()
        queue = UpdateQueue(env)
        for k in range(4):
            queue.enqueue(upd(k, 0))
        queue.dequeue_available()
        assert queue.peak_occupancy == 4

    def test_multiple_waiters_fifo_service(self):
        env = Environment()
        queue = UpdateQueue(env)
        order = []

        def consumer(env, queue, name):
            yield queue.dequeue(1, iteration=0)
            order.append(name)

        env.process(consumer(env, queue, "first"))
        env.process(consumer(env, queue, "second"))
        queue.enqueue(upd(0, 0))
        queue.enqueue(upd(0, 1))
        env.run()
        assert order == ["first", "second"]

    def test_waiter_for_later_iteration_not_starved(self):
        env = Environment()
        queue = UpdateQueue(env)
        got = []

        def consumer(env, queue, iteration):
            yield queue.dequeue(1, iteration=iteration)
            got.append(iteration)

        env.process(consumer(env, queue, 5))
        env.process(consumer(env, queue, 6))
        queue.enqueue(upd(6, 0))
        env.run(until=1)
        assert got == [6]

    def test_cancel_dequeue(self):
        env = Environment()
        queue = UpdateQueue(env)
        request = queue.dequeue(1, iteration=0)
        assert request.cancel()
        queue.enqueue(upd(0, 0))
        env.run()
        assert not request.triggered
        assert queue.size() == 1

    def test_zero_count_dequeue_succeeds_immediately(self):
        env = Environment()
        queue = UpdateQueue(env)

        def consumer(env, queue):
            return (yield queue.dequeue(0, iteration=9))

        p = env.process(consumer(env, queue))
        env.run()
        assert p.value == []


class TestRotatingUpdateQueue:
    def test_basic_dequeue(self):
        env = Environment()
        queue = RotatingUpdateQueue(env, max_ig=3)
        queue.enqueue(upd(0, 1))
        queue.enqueue(upd(0, 2))

        def consumer(env, queue):
            return (yield queue.dequeue(2, iteration=0))

        p = env.process(consumer(env, queue))
        env.run()
        assert len(p.value) == 2

    def test_slot_separation_across_iterations(self):
        env = Environment()
        queue = RotatingUpdateQueue(env, max_ig=3)
        queue.enqueue(upd(0, 1))
        queue.enqueue(upd(1, 1))
        queue.enqueue(upd(2, 1))
        assert queue.size(iteration=1) == 1
        assert queue.size() == 3

    def test_stale_entries_discarded_on_slot_reuse(self):
        env = Environment()
        queue = RotatingUpdateQueue(env, max_ig=1)  # 2 slots
        queue.enqueue(upd(0, 1))  # slot 0
        # Iteration 2 reuses slot 0; the iteration-0 leftover is stale.
        queue.enqueue(upd(2, 2))

        def consumer(env, queue):
            return (yield queue.dequeue(1, iteration=2))

        p = env.process(consumer(env, queue))
        env.run()
        assert p.value[0].iteration == 2
        assert queue.dropped_stale == 1

    def test_dequeue_requires_iteration_tag(self):
        env = Environment()
        queue = RotatingUpdateQueue(env, max_ig=2)
        with pytest.raises(ValueError):
            queue.dequeue(1)
        with pytest.raises(ValueError):
            queue.dequeue_available()

    def test_sender_filter_within_slot(self):
        env = Environment()
        queue = RotatingUpdateQueue(env, max_ig=2)
        queue.enqueue(upd(0, 7))
        queue.enqueue(upd(0, 8))
        taken = queue.dequeue_available(iteration=0, sender=8)
        assert len(taken) == 1 and taken[0].sender == 8

    def test_size_without_iteration_counts_all(self):
        env = Environment()
        queue = RotatingUpdateQueue(env, max_ig=3)
        queue.enqueue(upd(0, 1))
        queue.enqueue(upd(1, 1))
        assert queue.size(sender=1) == 2

    def test_discard_older_than(self):
        env = Environment()
        queue = RotatingUpdateQueue(env, max_ig=4)
        for k in range(4):
            queue.enqueue(upd(k, 0))
        assert queue.discard_older_than(2) == 2
        assert len(queue) == 2

    def test_mirrors_tagged_queue_on_gap_bounded_schedule(self):
        """Rotating and tagged implementations agree when gap <= max_ig."""
        max_ig = 3
        events = [(k, s) for k in range(10) for s in range(3)]

        def drive(queue_factory):
            env = Environment()
            queue = queue_factory(env)
            taken = []

            def consumer(env, queue):
                for k in range(10):
                    got = yield queue.dequeue(3, iteration=k)
                    taken.append(sorted((u.iteration, u.sender) for u in got))

            env.process(consumer(env, queue))
            for k, s in events:
                queue.enqueue(upd(k, s))
            env.run()
            return taken

        tagged = drive(lambda env: UpdateQueue(env))
        rotating = drive(lambda env: RotatingUpdateQueue(env, max_ig=max_ig))
        assert tagged == rotating

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            RotatingUpdateQueue(env, max_ig=0)


def granted(gate):
    """Every queue has handed ``gate`` its tokens."""
    return not gate.pending()


class TestTokenQueue:
    def test_acquire_blocks_until_put(self):
        env = Environment()
        queue = TokenQueue(env, owner=0, consumer=1, initial=0)
        got = []

        def consumer(env, queue):
            yield TokenGate(env, [queue], 1)
            got.append(env.now)

        env.process(consumer(env, queue))
        env.run(until=1.0)
        assert got == []
        queue.put(1)
        env.run()
        assert got == [1.0]

    def test_initial_tokens_available(self):
        env = Environment()
        queue = TokenQueue(env, owner=0, consumer=1, initial=3)
        assert queue.size() == 3
        gate = TokenGate(env, [queue], 3)
        assert granted(gate)
        assert queue.size() == 0

    def test_bulk_acquire_atomic(self):
        env = Environment()
        queue = TokenQueue(env, owner=0, consumer=1, initial=1)
        gate = TokenGate(env, [queue], 3)
        assert not granted(gate)
        queue.put(1)
        assert not granted(gate)  # 2 < 3
        queue.put(1)
        assert granted(gate)

    def test_fifo_among_waiters(self):
        env = Environment()
        queue = TokenQueue(env, owner=0, consumer=1, initial=0)
        first = TokenGate(env, [queue], 2)
        second = TokenGate(env, [queue], 1)
        queue.put(1)
        # Head-of-line blocking: the single token waits for `first`.
        assert not granted(first) and not granted(second)
        queue.put(1)
        assert granted(first) and not granted(second)
        queue.put(1)
        assert granted(second)

    def test_statistics(self):
        env = Environment()
        queue = TokenQueue(env, owner=0, consumer=1, initial=2)
        queue.put(3)
        TokenGate(env, [queue], 4)
        assert queue.total_inserted == 5
        assert queue.total_acquired == 4
        assert queue.peak == 5

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            TokenQueue(env, 0, 1, initial=-1)
        queue = TokenQueue(env, 0, 1)
        with pytest.raises(ValueError):
            queue.put(-1)
        with pytest.raises(ValueError):
            TokenGate(env, [queue], -1)
        with pytest.raises(ValueError):
            TokenGate(env, [queue], 1, delay=-1.0)


class TestTokenGate:
    def test_spans_queues_and_resumes_once_all_granted(self):
        env = Environment()
        queues = [TokenQueue(env, owner=j, consumer=9) for j in (1, 2, 3)]
        queues[0].put(1)
        resumed = []

        def consumer(env):
            yield TokenGate(env, queues)
            resumed.append(env.now)

        def owner(env, queue, at):
            yield env.timeout(at)
            queue.put(1)

        env.process(consumer(env))
        env.process(owner(env, queues[1], 2.0))
        env.process(owner(env, queues[2], 5.0))
        env.run()
        assert resumed == [5.0]
        assert [q.size() for q in queues] == [0, 0, 0]

    def test_round_trip_delays_the_first_take(self):
        env = Environment()
        queue = TokenQueue(env, owner=1, consumer=0, initial=1)
        gate = TokenGate(env, [queue], 1, delay=0.5)
        # Nothing is taken until the request has crossed the wire.
        assert queue.size() == 1 and gate.pending() == [queue]
        env.run(until=gate)
        assert env.now == 0.5 and queue.size() == 0

    def test_repr_names_the_owners_still_owing(self):
        env = Environment()
        queues = [TokenQueue(env, owner=j, consumer=0) for j in (4, 7)]
        gate = TokenGate(env, queues)
        assert "tokens from owners [4, 7]" in repr(gate)
        queues[0].put(1)
        assert "tokens from owners [7]" in repr(gate)
        queues[1].put(1)
        assert "owners" not in repr(gate)
