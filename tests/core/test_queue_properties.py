"""Property-based tests for Hop's queue structures (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    RotatingUpdateQueue,
    TokenGate,
    TokenQueue,
    Update,
    UpdateQueue,
)
from repro.sim import Environment


def upd(iteration, sender):
    return Update(np.array([float(iteration)]), iteration, sender)


@st.composite
def gap_bounded_schedule(draw):
    """Enqueue events for iterations 0..K with gap <= max_ig.

    Produces (max_ig, n_senders, enqueue order) such that every
    iteration receives exactly one update per sender and no update is
    more than ``max_ig`` iterations ahead of the oldest unconsumed one
    — the regime Theorem 2 guarantees and the rotating queue assumes.
    """
    max_ig = draw(st.integers(min_value=1, max_value=4))
    n_senders = draw(st.integers(min_value=1, max_value=4))
    n_iterations = draw(st.integers(min_value=1, max_value=8))
    events = []
    for k in range(n_iterations):
        senders = list(range(n_senders))
        order = draw(st.permutations(senders))
        events.extend((k, s) for s in order)
    # Interleave slightly: within a window of max_ig iterations the
    # arrival order may shuffle across iterations.
    window = max_ig * n_senders
    shuffled = []
    buffer = []
    for event in events:
        buffer.append(event)
        if len(buffer) > window:
            shuffled.append(buffer.pop(0))
    # Drain remaining in a drawn order restricted to the window.
    while buffer:
        index = draw(st.integers(min_value=0, max_value=len(buffer) - 1))
        shuffled.append(buffer.pop(index))
    return max_ig, n_senders, n_iterations, shuffled


@settings(max_examples=50, deadline=None)
@given(schedule=gap_bounded_schedule())
def test_rotating_queue_equivalent_to_tagged(schedule):
    """Section 6.1: the rotating implementation is observationally
    equivalent to the single tagged queue on gap-bounded schedules."""
    max_ig, n_senders, n_iterations, events = schedule

    def drive(queue):
        env = queue.env
        results = []

        def consumer(env, queue):
            for k in range(n_iterations):
                got = yield queue.dequeue(n_senders, iteration=k)
                results.append(sorted((u.iteration, u.sender) for u in got))

        env.process(consumer(env, queue))
        for k, s in events:
            queue.enqueue(upd(k, s))
        env.run()
        return results

    tagged = drive(UpdateQueue(Environment()))
    rotating = drive(RotatingUpdateQueue(Environment(), max_ig=max_ig))
    assert tagged == rotating
    assert len(tagged) == n_iterations


@settings(max_examples=100, deadline=None)
@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["put", "gate", "close", "reopen"]),
                  st.integers(min_value=0, max_value=3)),
        max_size=40,
    ),
    initial=st.integers(min_value=0, max_value=5),
)
def test_token_queue_conservation(operations, initial):
    """Tokens are conserved: inserted - acquired == size, always >= 0,
    through owner departures (close) and rejoins (reopen) too."""
    env = Environment()
    queue = TokenQueue(env, owner=0, consumer=1, initial=initial)
    for op, count in operations:
        if op == "put":
            queue.put(count)
        elif op == "gate":
            TokenGate(env, [queue], count)
        elif op == "close":
            queue.close()
        else:
            queue.reopen(count)
        assert queue.size() == queue.total_inserted - queue.total_acquired
        assert queue.size() >= 0
        assert queue.peak >= queue.size()
        if queue.closed:
            assert not queue._waiters


@settings(max_examples=50, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(min_value=0, max_value=6),
                  st.integers(min_value=0, max_value=3)),
        max_size=30,
    ),
    floor=st.integers(min_value=0, max_value=6),
)
def test_discard_older_than_is_exact(entries, floor):
    env = Environment()
    queue = UpdateQueue(env)
    for iteration, sender in entries:
        queue.enqueue(upd(iteration, sender))
    expected_drop = sum(1 for k, _ in entries if k < floor)
    assert queue.discard_older_than(floor) == expected_drop
    assert queue.size() == len(entries) - expected_drop


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5),
                  st.integers(min_value=0, max_value=2)),
        min_size=1,
        max_size=25,
    ),
)
def test_dequeue_available_partitions_by_tag(entries):
    """dequeue_available(iter) removes exactly the matches, in order."""
    env = Environment()
    queue = UpdateQueue(env)
    for iteration, sender in entries:
        queue.enqueue(upd(iteration, sender))
    target = entries[0][0]
    taken = queue.dequeue_available(iteration=target)
    assert [(u.iteration, u.sender) for u in taken] == [
        (k, s) for k, s in entries if k == target
    ]
    assert queue.size() == len(entries) - len(taken)


class TwoPassRotatingQueue(RotatingUpdateQueue):
    """The removed ``_dispatch``: purge the slot, then match it again."""

    def _dispatch(self):
        if not self._waiters:
            return
        progressed = True
        while progressed:
            progressed = False
            for request in list(self._waiters):
                self._purge_stale(request.iteration)
                slot = self._slot_of(request.iteration)
                matching = [
                    u
                    for u in slot
                    if u.matches(request.iteration, request.sender)
                ]
                if len(matching) >= request.count:
                    taken = matching[: request.count]
                    for update in taken:
                        slot.remove(update)
                    self._occupancy -= len(taken)
                    self._waiters.remove(request)
                    request.succeed(taken)
                    progressed = True
                    break


@settings(max_examples=200, deadline=None)
@given(
    max_ig=st.integers(min_value=1, max_value=3),
    operations=st.lists(
        st.one_of(
            st.tuples(
                st.just("enqueue"),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=2),
            ),
            st.tuples(
                st.just("dequeue"),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=3),
                st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
            ),
        ),
        max_size=40,
    ),
)
def test_one_pass_rotating_dispatch_matches_purge_then_match(
    max_ig, operations
):
    """Same grants in the same order, same ``dropped_stale`` and
    occupancy after every step — on any schedule, slot reuse (stale
    leftovers, not-yet-live entries) and several waiters included."""

    def drive(queue):
        requests = []
        trail = []
        for op in operations:
            if op[0] == "enqueue":
                queue.enqueue(upd(op[1], op[2]))
            else:
                requests.append(
                    queue.dequeue(op[2], iteration=op[1], sender=op[3])
                )
            trail.append(
                (
                    [
                        [(u.iteration, u.sender) for u in r.value]
                        if r.triggered
                        else None
                        for r in requests
                    ],
                    [[(u.iteration, u.sender) for u in s] for s in queue._slots],
                    queue.dropped_stale,
                    queue._occupancy,
                    queue.peak_occupancy,
                )
            )
        return trail

    assert drive(RotatingUpdateQueue(Environment(), max_ig)) == drive(
        TwoPassRotatingQueue(Environment(), max_ig)
    )
