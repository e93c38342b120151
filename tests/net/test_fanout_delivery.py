"""``Network.fan_out`` against the ``push`` calls it stands for.

A Send to several out-neighbors over the uniform fabric rides one
:class:`~repro.net.network.Delivery`.  The oracle is the per-message
spelling — one ``push`` per destination — and the contract is that
nothing observable moves: arrival order in every receiver's queue, the
order blocked receivers resume in (against probe events at the same
timestamp), the message counter and every byte accumulator's state,
bit for bit.  Where copies may not share a delay, ``fan_out`` must
take the per-message path itself.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queues import RotatingUpdateQueue, TokenQueue
from repro.core.update import Update
from repro.net import Link, LinkModel, Network
from repro.net.network import Delivery, SharedNic
from repro.scenarios.faults import MessageLoss
from repro.sim import Environment

LINK = Link(latency=0.5, bandwidth=4.0)


def accumulator_state(acc):
    return (acc.count, acc.mean, acc._m2, acc.min, acc.max)


def network_state(network):
    return (
        network.messages_sent,
        accumulator_state(network.bytes_attempted),
        accumulator_state(network.bytes_sent),
        accumulator_state(network.control_bytes),
        accumulator_state(network.bytes_dropped),
        accumulator_state(network.bytes_retransmitted),
    )


def fan_out(network, src, dsts, size, payload, delivers, control=False):
    network.fan_out(src, dsts, size, payload, delivers, control)


def push_each(network, src, dsts, size, payload, delivers, control=False):
    for dst, deliver in zip(dsts, delivers):
        network.push(src, dst, size, payload, deliver, control)


class World:
    """Four workers on a uniform fabric; 1-3 block on worker 0's Sends."""

    def __init__(self, send, n_sends):
        self.env = env = Environment()
        self.network = Network(env, LinkModel(default=LINK))
        self.send = send
        self.queues = {
            j: RotatingUpdateQueue(env, max_ig=4, owner=j) for j in (1, 2, 3)
        }
        self.log = []
        for j in self.queues:
            env.process(self.receiver(j, n_sends))

    def receiver(self, j, n_sends):
        for k in range(n_sends):
            got = yield self.queues[j].dequeue(1, iteration=k)
            self.log.append(("recv", j, got[0].sender, k, self.env.now))

    def probe(self, label, delay):
        def fired(_event):
            self.log.append(("probe", label, self.env.now))

        self.env.timeout(delay).callbacks.append(fired)

    def sender(self, script):
        env = self.env
        iteration = 0
        for label, step in enumerate(script):
            if step[0] == "advance":
                yield env.timeout(step[1])
            elif step[0] == "probe":
                self.probe(label, step[1])
            else:
                dsts = step[1]
                update = Update(np.zeros(2), iteration, 0)
                iteration += 1
                self.send(
                    self.network,
                    0,
                    dsts,
                    step[2],
                    update,
                    [self.queues[j].enqueue for j in dsts],
                )

    def run(self, script):
        self.env.process(self.sender(script))
        self.env.run()
        occupancy = [
            (q.total_enqueued, q.peak_occupancy, q.dropped_stale, len(q))
            for q in self.queues.values()
        ]
        return self.log, occupancy, network_state(self.network)


# transfer = 0.5 + size / 4: sizes 2 and 6 land on the probe grid.
STEP = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0])),
    st.tuples(st.just("probe"), st.sampled_from([0.0, 1.0, 2.0])),
    st.tuples(
        st.just("send"),
        st.permutations([1, 2, 3]),
        st.sampled_from([2.0, 6.0, 0.3]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(script=st.lists(STEP, max_size=25))
def test_fan_out_is_three_pushes(script):
    n_sends = sum(1 for step in script if step[0] == "send")
    expected = World(push_each, n_sends)
    shared = World(fan_out, n_sends)
    assert shared.run(script) == expected.run(script)
    # Two heap entries saved per 3-destination Send, and nothing else.
    saved = expected.env.events_scheduled - shared.env.events_scheduled
    assert saved == 2 * n_sends


def test_three_destinations_ride_one_delivery():
    env = Environment()
    network = Network(env, LinkModel(default=LINK))
    inboxes = {j: [] for j in (1, 2, 3)}
    before = env.events_scheduled
    network.fan_out(
        0, [3, 1, 2], 8.0, "u", [inboxes[j].append for j in (3, 1, 2)]
    )
    assert env.events_scheduled - before == 1
    ((when, _, _, event),) = env._queue
    assert isinstance(event, Delivery) and when == 0.5 + 8.0 / 4.0
    env.run()
    assert inboxes == {1: ["u"], 2: ["u"], 3: ["u"]}
    assert network.messages_sent == 3
    assert network.bytes_sent.count == 3 and network.bytes_sent.total == 24.0


def test_control_fan_out_credits_control_bytes():
    """NOTIFY-ACK's ACK fan-out: control-plane, same shared entry."""
    results = []
    for send in (push_each, fan_out):
        env = Environment()
        network = Network(env, LinkModel(default=LINK))
        acks = [TokenQueue(env, owner=0, consumer=j) for j in (1, 2, 3)]
        send(network, 0, [1, 2, 3], 1e-4, 1, [q.put for q in acks], True)
        env.run()
        assert [q.size() for q in acks] == [1, 1, 1]
        results.append((network_state(network), env.events_scheduled))
    (pushed, pushed_events), (shared, shared_events) = results
    assert shared == pushed and shared[2][0] == 0  # no payload bytes
    assert (pushed_events, shared_events) == (3, 1)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(2, 6),  # copies
            st.sampled_from([8.0, 8.0, 8.0, 1e-4, 0.3, 5e-324]),
            st.booleans(),  # control traffic
        ),
        max_size=20,
    )
)
def test_fan_out_counters_are_the_per_copy_pushes(sends):
    """On the uniform fabric ``fan_out`` credits each counter once for
    all its copies: every counter's state is bit for bit the per-copy
    ``push`` path's, with payload and control sends mixed (so the
    attempted bytes' mean moves and comes back)."""
    states = []
    for send in (push_each, fan_out):
        env = Environment()
        network = Network(env, LinkModel(default=LINK))
        inbox = []
        for copies, size, control in sends:
            dsts = list(range(1, copies + 1))
            send(network, 0, dsts, size, "u", [inbox.append] * copies, control)
        env.run()
        assert len(inbox) == sum(copies for copies, _, _ in sends)
        states.append(
            tuple(
                (count, *(struct.pack("<d", v) for v in fields))
                for count, *fields in network_state(network)[1:]
            )
            + (network.messages_sent,)
        )
    assert states[0] == states[1]


class FakeMembership:
    messages_dropped = 0

    def is_active(self, wid):
        return True


def lossy(env):
    loss = MessageLoss(0.5, rng=np.random.default_rng(7))
    return Network(env, LinkModel(default=LINK), message_loss=loss)


def shared_nic(env):
    nic = SharedNic(env, bandwidth=4.0)
    return Network(env, LinkModel(default=LINK), egress_nics={0: nic})


def elastic(env):
    network = Network(env, LinkModel(default=LINK))
    network.membership = FakeMembership()
    return network


def overridden(env):
    slow = {(0, 2): Link(latency=2.0, bandwidth=4.0)}
    return Network(env, LinkModel(default=LINK, overrides=slow))


@pytest.mark.parametrize(
    "build", [lossy, shared_nic, elastic, overridden], ids=lambda f: f.__name__
)
def test_per_message_path_when_copies_may_not_share_a_delay(build):
    """Loss draws, an egress NIC, membership routing and per-edge link
    overrides each make a copy's delay its own: ``fan_out`` must do
    exactly what three ``push`` calls do, heap entries included."""
    outcomes = []
    for send in (push_each, fan_out):
        env = Environment()
        network = build(env)
        arrivals = []
        delivers = [
            (lambda payload, j=j: arrivals.append((j, env.now)))
            for j in (1, 2, 3)
        ]
        send(network, 0, [1, 2, 3], 8.0, "u", delivers)
        shared = [
            entry[3]
            for entry in env._queue
            if isinstance(entry[3], Delivery) and len(entry[3]._delivers) > 1
        ]
        assert not shared
        env.run()
        outcomes.append(
            (arrivals, network_state(network), env.events_scheduled)
        )
    assert outcomes[0] == outcomes[1]
    assert sorted(j for j, _ in outcomes[1][0]) == [1, 2, 3]


def test_single_survivor_and_self_addressed_sends_take_push():
    env = Environment()
    network = Network(env, LinkModel(default=LINK))
    got = []
    network.fan_out(0, [2], 8.0, "solo", [got.append])
    # A self-addressed copy prices differently (no wire to cross).
    network.fan_out(1, [1, 3], 8.0, "self", [got.append, got.append])
    assert all(len(entry[3]._delivers) == 1 for entry in env._queue)
    assert env.events_scheduled == 3
    env.run()
    assert sorted(got) == ["self", "self", "solo"]
