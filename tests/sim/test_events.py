"""Tests for event primitives: trigger semantics and callbacks."""

import pytest

from repro.sim import Environment


def test_event_starts_untriggered():
    env = Environment()
    ev = env.event()
    assert not ev.triggered
    assert not ev.processed


def test_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_succeed_sets_value_and_ok():
    env = Environment()
    ev = env.event()
    ev.succeed(123)
    assert ev.triggered
    assert ev.ok
    assert ev.value == 123


def test_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_failed_event_without_handler_crashes_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_defused_failed_event_does_not_crash():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("handled"))
    ev.defused = True
    env.run()  # no raise


def test_process_can_catch_failed_event():
    env = Environment()
    ev = env.event()
    caught = []

    def proc(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc(env, ev))
    ev.fail(RuntimeError("oops"))
    env.run()
    assert caught == ["oops"]


def test_callbacks_receive_the_event():
    env = Environment()
    ev = env.event()
    seen = []
    ev.callbacks.append(lambda e: seen.append(e))
    ev.succeed()
    env.run()
    assert seen == [ev]
