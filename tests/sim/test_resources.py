"""Tests for the Resource (counting semaphore)."""

import pytest

from repro.sim import Environment, Resource


def test_request_release_cycle():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(env, res, name, hold):
        req = res.request()
        yield req
        log.append((name, "acquired", env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append((name, "released", env.now))

    env.process(user(env, res, "a", 2.0))
    env.process(user(env, res, "b", 1.0))
    env.run()
    assert log == [
        ("a", "acquired", 0.0),
        ("a", "released", 2.0),
        ("b", "acquired", 2.0),
        ("b", "released", 3.0),
    ]


def test_capacity_allows_concurrency():
    env = Environment()
    res = Resource(env, capacity=2)
    acquired_times = []

    def user(env, res):
        req = res.request()
        yield req
        acquired_times.append(env.now)
        yield env.timeout(5)
        res.release(req)

    for _ in range(3):
        env.process(user(env, res))
    env.run()
    assert acquired_times == [0.0, 0.0, 5.0]


def test_count_and_queue_length():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert res.count == 1
    assert res.queue_length == 1
    res.release(r1)
    assert res.count == 1  # r2 was granted
    assert res.queue_length == 0
    assert r2.triggered


def test_release_without_hold_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    res.request()
    stranger = res.request()  # still waiting
    with pytest.raises(RuntimeError):
        res.release(stranger)


def test_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)
