"""Byte-accounting contract: delivered / dropped / control / attempted.

The accounting split fixed two bugs the compression plane exposed:
``bytes_sent`` used to credit launch-time traffic that membership
departures later dropped, and zero/tiny control messages (ACKs,
tokens, RPCs) polluted the payload-volume stats.  These tests pin the
conservation law the split guarantees — ``bytes_sent + bytes_dropped``
equals the sum of every launched payload's size, exactly — plus the
classification rules, at the Network unit level and on full traced
runs with a mid-flight leaver.
"""

import pytest

from repro.harness.golden import churn_conformance_spec, conformance_spec
from repro.harness.io import run_to_dict
from repro.harness.spec import run_spec
from repro.net import Link, LinkModel, Message, Network
from repro.scenarios.faults import MessageLoss
from repro.sim import Environment


class FakeMembership:
    """Minimal membership runtime: an activity set + a drop counter."""

    def __init__(self, n):
        self.active = set(range(n))
        self.messages_dropped = 0

    def is_active(self, wid):
        return wid in self.active


def _network(env, n=4, latency=0.5, bandwidth=1.0):
    network = Network(
        env, LinkModel(default=Link(latency=latency, bandwidth=bandwidth))
    )
    network.membership = FakeMembership(n)
    return network


class TestConservation:
    def test_mid_flight_leaver_splits_sent_and_dropped(self):
        # Power-of-two sizes: float accumulation of the per-message
        # payloads is exact, so the conservation law holds with ==.
        env = Environment()
        network = _network(env)
        sizes = [8.0, 4.0, 2.0, 16.0]
        inbox = []
        for i, size in enumerate(sizes):
            network.push(0, 1, size, payload=i, deliver=inbox.append)

        def leaver(env):
            # Deactivate the destination while all four transfers are
            # still in flight (each takes 0.5 + size/1.0 >= 2.5s).
            yield env.timeout(1.0)
            network.membership.active.discard(1)

        env.process(leaver(env))
        env.run()
        assert inbox == []
        assert network.bytes_sent.total == 0.0
        assert network.bytes_dropped.total == sum(sizes)
        assert network.messages_dropped == len(sizes)
        # The legacy launch-time aggregate still counts everything.
        assert network.bytes_attempted.total == sum(sizes)

    def test_sent_plus_dropped_is_every_launched_payload(self):
        env = Environment()
        network = _network(env)
        sizes = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        delivered = []
        # Interleave survivors (dst 2) with casualties (dst 1).
        for i, size in enumerate(sizes):
            dst = 1 if i % 2 else 2
            network.push(0, dst, size, payload=i, deliver=delivered.append)

        def leaver(env):
            yield env.timeout(0.1)
            network.membership.active.discard(1)

        env.process(leaver(env))
        env.run()
        assert (
            network.bytes_sent.total + network.bytes_dropped.total
            == sum(sizes)
        )
        assert network.bytes_dropped.total == sum(sizes[1::2])
        assert len(delivered) == 3

    def test_static_fast_path_credits_at_launch(self):
        env = Environment()
        network = Network(env)
        network.push(0, 1, 8.0, payload="u", deliver=lambda p: None)
        # No membership installed: delivery is guaranteed, so the
        # credit happens synchronously at launch.
        assert network.bytes_sent.total == 8.0
        assert network.bytes_dropped.total == 0.0
        env.run()
        assert network.bytes_sent.total == 8.0


class TestControlClassification:
    def test_control_push_excluded_from_payload_stats(self):
        env = Environment()
        network = Network(env)
        network.push(0, 1, 8.0, payload="u", deliver=lambda p: None)
        network.push(0, 1, 1e-4, payload="ack", deliver=lambda p: None,
                     control=True)
        env.run()
        assert network.bytes_sent.total == 8.0
        assert network.control_bytes.total == 1e-4
        assert network.bytes_attempted.total == 8.0 + 1e-4

    def test_control_send_excluded_from_payload_stats(self):
        env = Environment()
        network = Network(env)
        message = Message(0, 1, "token", size=1e-4)
        network.send(message, deliver=lambda m: None, control=True)
        env.run()
        assert network.bytes_sent.total == 0.0
        assert network.control_bytes.total == 1e-4

    def test_dropped_control_message_counts_drop_not_bytes(self):
        env = Environment()
        network = _network(env)
        network.membership.active.discard(1)
        delivered = []
        network.push(0, 1, 1e-4, payload="ack", deliver=delivered.append,
                     control=True)
        env.run()
        assert delivered == []
        # Control bytes are charged at launch either way; the drop is
        # visible in the message counter, not the payload stats.
        assert network.control_bytes.total == 1e-4
        assert network.bytes_dropped.total == 0.0
        assert network.messages_dropped == 1


class TestRetransmits:
    def test_lost_attempts_count_separately_from_delivery(self):
        env = Environment()
        loss = MessageLoss(probability=0.9, retransmit_timeout=0.0)
        network = Network(
            env,
            LinkModel(default=Link(latency=0.1, bandwidth=100.0)),
            message_loss=loss,
        )
        delivered = []
        for i in range(8):
            network.push(0, 1, 4.0, payload=i, deliver=delivered.append)
        env.run()
        assert len(delivered) == 8
        # The delivered copy is counted exactly once per message; the
        # burned attempts accumulate separately.
        assert network.bytes_sent.total == 8 * 4.0
        assert network.bytes_retransmitted.total == loss.messages_dropped * 4.0
        assert loss.messages_dropped > 0


class TestTracedRuns:
    """Integration: the acceptance-criterion run with a mid-flight leaver."""

    @pytest.mark.parametrize("protocol", ["hop", "notify_ack"])
    def test_churn_run_conserves_payload_bytes(self, protocol):
        run = run_spec(churn_conformance_spec(protocol, "churn"))
        assert run.messages_dropped > 0, "the leaver must strand messages"
        if protocol == "hop":
            # Hop broadcasts updates unconditionally, so the leaver
            # catches payload mid-flight.
            assert run.bytes_dropped > 0
        else:
            # NOTIFY-ACK's serial gating means only ACKs are in the
            # air when a worker departs: the drops are control-plane
            # and must not leak into the payload stats.
            assert run.bytes_dropped == 0.0
        assert run.bytes_sent + run.bytes_dropped <= run.bytes_attempted
        # update_size is 8.0 (a power of two) and every payload message
        # carries a whole number of updates, so launched payload bytes
        # are exact: attempted minus the (tiny, exact-at-1e-4) control
        # traffic recovers them bitwise.
        launched_payload = run.bytes_attempted - run.control_bytes
        assert run.bytes_sent + run.bytes_dropped == pytest.approx(
            launched_payload, abs=1e-9
        )

    def test_static_run_drops_nothing(self):
        run = run_spec(conformance_spec("hop", "none"))
        assert run.bytes_dropped == 0.0
        assert run.bytes_sent + run.control_bytes == pytest.approx(
            run.bytes_attempted
        )

    def test_notify_ack_acks_are_control_plane(self):
        run = run_spec(conformance_spec("notify_ack", "none"))
        assert run.control_bytes > 0.0
        # ACKs ride one per update message at CONTROL_SIZE each; the
        # payload stat must not contain them.
        assert run.bytes_sent == run.messages_sent / 2 * 8.0

    def test_run_json_surfaces_the_split(self):
        run = run_spec(conformance_spec("hop", "none"))
        payload = run_to_dict(run)
        for key in (
            "bytes_sent",
            "bytes_dropped",
            "control_bytes",
            "bytes_retransmitted",
            "bytes_attempted",
        ):
            assert key in payload
            assert isinstance(payload[key], float)
