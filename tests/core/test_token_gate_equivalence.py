"""``TokenGate`` against the per-queue acquire events it replaced.

``ReferenceTokenQueue.acquire`` + ``AllOf`` (behind a ``Timeout`` for
the request round trip) is the removed spelling of Figure 7's token
wait, kept here as the oracle.  The gate schedules fewer heap entries;
what must not change is *order*: every waiter resumes at the same
simulated time and in the same position relative to every other
observable event, including unrelated events at the same timestamp.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queues import TokenGate, TokenQueue
from repro.sim import Environment, Event


class TokenAcquire(Event):
    """The removed per-queue acquisition event."""

    __slots__ = ("count",)

    def __init__(self, env, count):
        super().__init__(env)
        self.count = count


class ReferenceTokenQueue(TokenQueue):
    """The removed waiter protocol: every grant is its own heap event."""

    def acquire(self, count=1):
        request = TokenAcquire(self.env, count)
        self._waiters.append(request)
        self._dispatch()
        return request

    def _dispatch(self):
        while self._waiters and self._take(self._waiters[0].count):
            self._waiters.pop(0).succeed()


def reference_wait(env, queues, count, delay):
    """The removed wait, exactly as ``HopWorker.run`` spelled it."""
    if delay > 0:
        yield env.timeout(delay)
    acquires = [queue.acquire(count) for queue in queues]
    if acquires:
        yield env.all_of(acquires)


def gate_wait(env, queues, count, delay):
    yield TokenGate(env, queues, count, delay)


class World:
    """One environment, its queues and the log of what was observed."""

    def __init__(self, queue_type, wait, n_queues, initial):
        self.env = Environment()
        self.queues = [
            queue_type(self.env, owner=j, consumer=99, initial=initial[j])
            for j in range(n_queues)
        ]
        self.wait = wait
        self.log = []

    def consumer(self, label, picks, count, delay):
        env = self.env
        queues = [self.queues[j] for j in picks]
        yield from self.wait(env, queues, count, delay)
        self.log.append(("resumed", label, env.now))

    def probe(self, label, delay):
        def fired(_event):
            self.log.append(("probe", label, self.env.now))

        self.env.timeout(delay).callbacks.append(fired)

    def driver(self, script):
        env = self.env
        for label, step in enumerate(script):
            op = step[0]
            if op == "advance":
                yield env.timeout(step[1])
            elif op == "put":
                self.queues[step[1]].put(step[2])
            elif op == "close":
                self.queues[step[1]].close()
            elif op == "reopen":
                self.queues[step[1]].reopen(step[2])
            elif op == "probe":
                self.probe(label, step[1])
            else:
                env.process(self.consumer(label, *step[1:]))

    def run(self, script):
        self.env.process(self.driver(script))
        self.env.run()
        return self.log, [
            (q.size(), q.total_inserted, q.total_acquired, q.peak, q.closed)
            for q in self.queues
        ]


#: Few distinct delays, so grants, round trips and probes keep landing
#: on one timestamp and the tie-break order is what gets tested.
DELAYS = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def gate_scripts(draw):
    n_queues = draw(st.integers(min_value=2, max_value=4))
    queue = st.integers(min_value=0, max_value=n_queues - 1)
    initial = draw(
        st.lists(
            st.integers(min_value=0, max_value=2),
            min_size=n_queues,
            max_size=n_queues,
        )
    )
    step = st.one_of(
        st.tuples(st.just("advance"), DELAYS),
        st.tuples(st.just("put"), queue, st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("close"), queue),
        st.tuples(
            st.just("reopen"), queue, st.integers(min_value=0, max_value=3)
        ),
        st.tuples(st.just("probe"), DELAYS),
        st.tuples(
            st.just("wait"),
            st.lists(queue, min_size=1, max_size=n_queues, unique=True),
            st.integers(min_value=0, max_value=2),
            DELAYS,
        ),
    )
    return n_queues, initial, draw(st.lists(step, max_size=40))


@settings(max_examples=300, deadline=None)
@given(script=gate_scripts())
def test_gate_resumes_where_acquire_all_of_did(script):
    n_queues, initial, steps = script
    reference = World(ReferenceTokenQueue, reference_wait, n_queues, initial)
    gated = World(TokenQueue, gate_wait, n_queues, initial)
    expected_log, expected_counters = reference.run(steps)
    log, counters = gated.run(steps)
    assert log == expected_log
    assert counters == expected_counters
    # The point of the exercise: same order from fewer heap entries.
    assert gated.env.events_scheduled <= reference.env.events_scheduled


def test_mixed_immediate_and_late_grants_against_same_time_probes():
    """The hand-written case the issue is about: three queues, one
    token already there, two arriving later at one timestamp with
    probes scheduled around them."""
    steps = [
        ("put", 0, 1),
        ("wait", [0, 1, 2], 1, 0.5),
        ("probe", 1.0),
        ("advance", 1.0),
        ("probe", 0.0),
        ("put", 1, 1),
        ("probe", 0.0),
        ("put", 2, 1),
        ("probe", 0.0),
        ("wait", [0], 1, 0.0),
        ("put", 0, 1),
    ]
    reference = World(ReferenceTokenQueue, reference_wait, 3, [0, 0, 0])
    gated = World(TokenQueue, gate_wait, 3, [0, 0, 0])
    expected = reference.run(steps)
    assert gated.run(steps) == expected
    labels = [(kind, label) for kind, label, _ in expected[0]]
    # Both waiters resume after every probe: an AllOf (or the gate's
    # last step) is scheduled only once its last grant is *processed*.
    assert labels == [
        ("probe", 2), ("probe", 4), ("probe", 6), ("probe", 8),
        ("resumed", 1), ("resumed", 9),
    ]
    # 3 acquires + AllOf + Timeout and 1 acquire + AllOf, against 3 + 2.
    saved = reference.env.events_scheduled - gated.env.events_scheduled
    assert saved == 2
