"""Tests for the Network fabric and the SharedNic hotspot model."""

import pytest

from repro.net import Link, LinkModel, Message, Network, SharedNic
from repro.sim import Environment


def test_send_delivers_after_transfer_time():
    env = Environment()
    network = Network(env, LinkModel(default=Link(latency=0.5, bandwidth=10.0)))
    inbox = []

    message = Message(src=0, dst=1, kind="update", payload="params", size=5.0)
    network.send(message, deliver=lambda m: inbox.append((env.now, m.payload)))
    env.run()
    assert inbox == [(1.0, "params")]  # 0.5 latency + 5/10 serialization


def test_send_is_non_blocking():
    env = Environment()
    network = Network(env, LinkModel(default=Link(latency=10.0, bandwidth=1.0)))
    progress = []

    def sender(env, network):
        network.send(Message(0, 1, "update", size=1.0), deliver=lambda m: None)
        progress.append(env.now)  # reached immediately
        yield env.timeout(0.0)

    env.process(sender(env, network))
    env.run()
    assert progress == [0.0]


def test_transfer_event_timing():
    env = Environment()
    network = Network(env, LinkModel(default=Link(latency=0.1, bandwidth=100.0)))

    def proc(env, network):
        yield network.transfer(0, 1, 10.0)
        return env.now

    p = env.process(proc(env, network))
    env.run()
    assert p.value == pytest.approx(0.1 + 0.1)


def test_message_statistics():
    env = Environment()
    network = Network(env)
    network.send(Message(0, 1, "update", size=3.0), deliver=lambda m: None)
    network.send(Message(1, 0, "update", size=5.0), deliver=lambda m: None)
    env.run()
    assert network.messages_sent == 2
    assert network.bytes_sent.total == pytest.approx(8.0)


def test_messages_stamped_with_send_time():
    env = Environment()
    network = Network(env)
    stamped = []

    def proc(env, network):
        yield env.timeout(2.5)
        message = Message(0, 1, "update", size=0.0)
        network.send(message, deliver=lambda m: stamped.append(m.sent_at))

    env.process(proc(env, network))
    env.run()
    assert stamped == [2.5]


class TestSharedNic:
    def test_concurrent_transfers_serialize(self):
        env = Environment()
        nic = SharedNic(env, bandwidth=10.0, latency=0.0)
        done = []

        def pusher(env, nic, name):
            yield from nic.transfer(10.0)  # 1 second each at bw=10
            done.append((name, env.now))

        for name in ("a", "b", "c"):
            env.process(pusher(env, nic, name))
        env.run()
        assert done == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_queue_length_visible(self):
        env = Environment()
        nic = SharedNic(env, bandwidth=1.0, latency=0.0)

        def pusher(env, nic):
            yield from nic.transfer(5.0)

        env.process(pusher(env, nic))
        env.process(pusher(env, nic))
        env.run(until=1.0)
        assert nic.queue_length == 1

    def test_busy_time_accumulates(self):
        env = Environment()
        nic = SharedNic(env, bandwidth=10.0, latency=0.0)

        def pusher(env, nic):
            yield from nic.transfer(20.0)

        env.process(pusher(env, nic))
        env.run()
        assert nic.busy_time == pytest.approx(2.0)

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            SharedNic(env, bandwidth=0.0)
        nic = SharedNic(env)
        with pytest.raises(ValueError):
            list(nic.transfer(-1.0))
