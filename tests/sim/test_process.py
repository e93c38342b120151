"""Tests for process semantics: chaining, return values, failures."""

import pytest

from repro.sim import Environment


def test_process_return_value_is_event_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 99

    p = env.process(proc(env))
    env.run()
    assert p.value == 99


def test_process_triggers_only_when_done():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    p = env.process(proc(env))
    env.run(until=2)
    assert not p.triggered
    env.run()
    assert p.triggered


def test_waiting_on_another_process_gets_its_return():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(2)
        return "child-result"

    def parent(env):
        value = yield env.process(child(env))
        results.append((env.now, value))

    env.process(parent(env))
    env.run()
    assert results == [(2.0, "child-result")]


def test_waiting_on_already_finished_process():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1)
        return "early"

    def parent(env, child_proc):
        yield env.timeout(10)
        value = yield child_proc  # already processed by now
        results.append((env.now, value))

    child_proc = env.process(child(env))
    env.process(parent(env, child_proc))
    env.run()
    assert results == [(10.0, "early")]


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_rejects_non_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_nested_process_chain():
    env = Environment()

    def level3(env):
        yield env.timeout(1)
        return 3

    def level2(env):
        value = yield env.process(level3(env))
        return value + 2

    def level1(env):
        value = yield env.process(level2(env))
        return value + 1

    p = env.process(level1(env))
    env.run()
    assert p.value == 6
    assert env.now == 1.0


def test_exception_propagates_through_waiters():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1)
        raise KeyError("inner")

    def parent(env):
        try:
            yield env.process(child(env))
        except KeyError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["'inner'"]
