"""Tests for the simulation engine: clock, scheduling, run modes."""

import textwrap

import pytest

from repro.sim import EmptySchedule, Environment, Timeout


def test_initial_time_defaults_to_zero():
    assert Environment().now == 0.0


def test_initial_time_can_be_set():
    assert Environment(initial_time=42.5).now == 42.5


def test_run_empty_schedule_returns_none():
    env = Environment()
    assert env.run() is None
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.0)
    env.run()
    assert env.now == 3.0


def test_step_raises_on_empty_schedule():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_run_until_time_stops_exactly_there():
    env = Environment()
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_time_in_past_raises():
    env = Environment()
    env.timeout(5.0)
    env.run()
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "finished"

    p = env.process(proc(env))
    assert env.run(until=p) == "finished"
    assert env.now == 2.0


def test_run_until_never_triggered_event_raises_deadlock():
    env = Environment()
    blocked = env.event()
    with pytest.raises(RuntimeError, match="deadlock"):
        env.run(until=blocked)


def test_events_at_same_time_fire_in_creation_order():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "a", 1.0))
    env.process(proc(env, "b", 1.0))
    env.process(proc(env, "c", 1.0))
    env.run()
    assert order == ["a", "b", "c"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_determinism_two_identical_runs():
    def build_and_run():
        env = Environment()
        log = []

        def proc(env, name):
            for i in range(3):
                yield env.timeout(0.5 + 0.1 * i)
                log.append((env.now, name, i))

        for name in ("x", "y", "z"):
            env.process(proc(env, name))
        env.run()
        return log

    assert build_and_run() == build_and_run()


def test_clock_is_monotonic_across_many_events():
    env = Environment()
    times = []

    def proc(env, delays):
        for d in delays:
            yield env.timeout(d)
            times.append(env.now)

    env.process(proc(env, [0.3, 0.1, 0.7]))
    env.process(proc(env, [0.2, 0.2, 0.2]))
    env.run()
    assert times == sorted(times)


def test_unhandled_process_failure_surfaces_in_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_events_scheduled_counts_every_path_and_reading_is_free():
    env = Environment()
    assert env.events_scheduled == 0
    fired = []

    def proc(env):  # process start, one timeout, process finish
        yield env.timeout(1.0)

    env.process(proc(env))
    assert env.events_scheduled == 1
    env.event().succeed()  # schedule_triggered
    Timeout(env, 1.0)  # generic schedule
    assert env.events_scheduled == env.events_scheduled == 3
    # A read between two same-time events leaves their tie-break
    # alone: ids keep rising from where they were.
    env.timeout(2.0).callbacks.append(lambda _e: fired.append("first"))
    assert env.events_scheduled == 4
    env.timeout(2.0).callbacks.append(lambda _e: fired.append("second"))
    env.run()
    assert fired == ["first", "second"]
    assert env.events_scheduled == 7


def test_package_docstring_example_runs():
    import repro.sim

    example = textwrap.dedent(repro.sim.__doc__.split("Public API::", 1)[1])
    exec(compile(example, "<repro.sim docstring>", "exec"), {})
