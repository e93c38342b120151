"""``SharedNic``'s FIFO against the ``Resource`` spelling it replaced.

The hotspot NIC is a busy flag and a deque of grant events.  The oracle
is the removed spelling, kept below: a capacity-1
:class:`~repro.sim.resources.Resource`, one ``Request`` per transfer and
``release`` in a ``finally``.  The contract is that nothing observable
moves: when each transfer is granted and completes, the order blocked
processes resume in (against probe events at the same timestamps),
``queue_length`` along the way, ``busy_time`` and the heap-entry count,
bit for bit.  Three cases: an idle NIC, a busy NIC whose release grants
the next transfer, and a machine's egress NIC behind ``Network``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Link, LinkModel, Network
from repro.net.network import SharedNic
from repro.sim import Environment, Resource


def network_state(network):
    return (
        network.messages_sent,
        *(
            (acc.count, acc.mean, acc._m2, acc.min, acc.max)
            for acc in (
                network.bytes_attempted,
                network.bytes_sent,
                network.control_bytes,
            )
        ),
    )


class ResourceNic:
    """The removed spelling: a capacity-1 ``Resource`` per NIC."""

    def __init__(self, env, bandwidth=125.0, latency=1e-4):
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self._port = Resource(env, capacity=1)
        self.busy_time = 0.0

    def transfer(self, size):
        request = self._port.request()
        yield request
        duration = self.latency + size / self.bandwidth
        try:
            start = self.env.now
            yield self.env.timeout(duration)
            self.busy_time += self.env.now - start
        finally:
            self._port.release(request)

    @property
    def queue_length(self):
        return self._port.queue_length


class World:
    """Processes that each make one transfer through one NIC, and probes.

    ``script`` entries are ``("transfer", start, size)`` or ``("probe",
    at, None)``; the log holds every request, completion and probe with
    its time and the NIC's queue length then.
    """

    def __init__(self, nic_class):
        self.env = Environment()
        # transfer = 0.5 + size / 4: sizes 2 and 6 land on the probe grid.
        self.nic = nic_class(self.env, bandwidth=4.0, latency=0.5)
        self.log = []

    def note(self, *entry):
        self.log.append((*entry, self.env.now, self.nic.queue_length))

    def probe(self, label, at):
        self.env.timeout(at).callbacks.append(
            lambda _event: self.note("probe", label)
        )

    def user(self, label, start, size):
        yield self.env.timeout(start)
        self.note("request", label)
        yield from self.nic.transfer(size)
        self.note("done", label)

    def run(self, script):
        for label, (kind, at, size) in enumerate(script):
            if kind == "probe":
                self.probe(label, at)
            else:
                self.env.process(self.user(label, at, size))
        self.env.run()
        return self.log, self.nic.busy_time, self.env.events_scheduled


def both(script):
    return World(SharedNic).run(script), World(ResourceNic).run(script)


def test_an_idle_nic_grants_where_the_request_stood():
    # Each transfer finds the NIC idle; probes sit on every request and
    # completion time, before and after the transfers that share it.
    script = [
        ("probe", 0.0, None),
        ("transfer", 0.0, 2.0),
        ("probe", 1.0, None),
        ("transfer", 1.0, 6.0),
        ("probe", 3.0, None),
        ("transfer", 5.0, 2.0),
        ("probe", 5.0, None),
        ("probe", 6.0, None),
    ]
    fifo, oracle = both(script)
    assert fifo == oracle
    log, busy_time, _ = fifo
    assert [entry[:2] for entry in log if entry[0] == "done"] == [
        ("done", 1),
        ("done", 3),
        ("done", 5),
    ]
    assert all(entry[-1] == 0 for entry in log) and busy_time == 4.0


STEP = st.one_of(
    st.tuples(
        st.just("transfer"),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
        st.sampled_from([2.0, 6.0, 0.3]),
    ),
    st.tuples(
        st.just("probe"), st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0]), st.none()
    ),
)


@settings(max_examples=150, deadline=None)
@given(script=st.lists(STEP, max_size=20))
def test_a_busy_nic_grants_in_release_order(script):
    fifo, oracle = both(script)
    assert fifo == oracle


def test_a_release_grants_the_next_transfer_at_the_same_instant():
    # Three transfers at once: each release grants the next one at the
    # instant it completes.  The probe at 1.0 was scheduled first, so it
    # sees two transfers still waiting; the first completion then sees
    # one, its release having granted the second.
    script = [("transfer", 0.0, 2.0)] * 3 + [("probe", 1.0, None)]
    fifo, oracle = both(script)
    assert fifo == oracle
    log = fifo[0]
    assert [entry for entry in log if entry[0] != "request"] == [
        ("probe", 3, 1.0, 2),
        ("done", 0, 1.0, 1),
        ("done", 1, 2.0, 0),
        ("done", 2, 3.0, 0),
    ]
    # Each request is noted before it joins: the first two see none waiting.
    assert [entry[-1] for entry in log if entry[0] == "request"] == [0, 0, 1]


LINK = Link(latency=0.5, bandwidth=4.0)


def egress_world(nic_class, script):
    """Workers 0 and 1 share machine 0's uplink; 2 is on machine 1."""
    env = Environment()
    nic = nic_class(env, bandwidth=2.0, latency=0.25)
    network = Network(
        env,
        LinkModel(default=LINK),
        egress_nics={0: nic, 1: nic},
        machine_of=[0, 0, 1],
    )
    log = []

    def probe(label, at):
        env.timeout(at).callbacks.append(
            lambda _event: log.append(("probe", label, env.now))
        )

    def sender(label, src, dst, start, size):
        yield env.timeout(start)
        network.push(
            src,
            dst,
            size,
            label,
            lambda payload: log.append(("arrive", payload, dst, env.now)),
        )

    for label, (src, dst, start, size) in enumerate(script):
        if src is None:
            probe(label, start)
        else:
            env.process(sender(label, src, dst, start, size))
    env.run()
    return log, network_state(network), nic.busy_time, env.events_scheduled


EGRESS_STEP = st.one_of(
    st.tuples(
        st.sampled_from([0, 1, 2]),
        st.sampled_from([0, 1, 2]),
        st.sampled_from([0.0, 0.75, 1.5]),
        st.sampled_from([1.0, 2.5, 0.5]),
    ),
    st.tuples(st.none(), st.none(), st.sampled_from([0.75, 1.5, 2.25]), st.none()),
)


@settings(max_examples=100, deadline=None)
@given(script=st.lists(EGRESS_STEP, max_size=16))
def test_the_egress_path_through_network(script):
    """A machine's shared uplink (hierarchical placement): same-machine
    sends skip it, cross-machine sends queue on it."""
    fifo = egress_world(SharedNic, script)
    assert fifo == egress_world(ResourceNic, script)
