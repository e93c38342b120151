"""Discrete-event simulation substrate.

A from-scratch, deterministic event/process simulator in the SimPy
style.  The Hop protocol, all baselines, and the network model run as
generator processes on this engine against a simulated clock.

Public API::

    from repro.sim import Environment, RngStreams

    env = Environment()
    ready = env.event()

    def producer(env):
        yield env.timeout(1.0)
        ready.succeed("hello")

    def consumer(env):
        item = yield ready
        yield env.timeout(1.0)
        return item

    env.process(producer(env))
    proc = env.process(consumer(env))
    env.run()
    assert env.now == 2.0 and proc.value == "hello"
"""

from repro.sim.engine import EmptySchedule, Environment
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Request, Resource
from repro.sim.rng import RngStreams, derive_seed
from repro.sim.trace import StatAccumulator

__all__ = [
    "EmptySchedule",
    "Environment",
    "Event",
    "Process",
    "Request",
    "Resource",
    "RngStreams",
    "StatAccumulator",
    "Timeout",
    "derive_seed",
]
