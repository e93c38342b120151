"""The discrete-event simulation engine.

:class:`Environment` owns the simulated clock and the time-ordered event
heap.  Processes (see :mod:`repro.sim.process`) are generators that
yield events; the environment resumes them when those events fire.

The engine is deterministic: events scheduled for the same time are
processed in (priority, insertion-order).
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Generator, Optional, Union

from repro.sim.events import NORMAL, Event, StopSimulation, Timeout
from repro.sim.process import Process


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """A discrete-event simulation environment.

    Args:
        initial_time: Starting value of the simulated clock.

    Example::

        env = Environment()

        def proc(env):
            yield env.timeout(5)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert env.now == 5 and p.value == "done"

    Determinism contract: events fire in ``(time, priority,
    insertion-order)``; every scheduling path — generic
    :meth:`schedule`, the inlined :meth:`timeout` /
    :meth:`schedule_triggered` fast paths, and process bootstrap —
    draws its insertion id from the single shared counter, so fast and
    slow paths produce identical orderings.
    """

    __slots__ = ("now", "_queue", "_eid")

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time.  A plain slot that only the engine
        #: writes (it is read several times per worker-iteration, and a
        #: property would make each read a call).
        self.now = float(initial_time)
        self._queue: list = []
        self._eid = count()

    # ------------------------------------------------------------------
    # Clock and schedule
    # ------------------------------------------------------------------
    @property
    def events_scheduled(self) -> int:
        """Exact count of heap entries scheduled so far.

        Read off the insertion counter every scheduling path draws
        from, so counting costs nothing per event; the read consumes
        one id and rebuilds the counter at the same value.
        """
        scheduled = next(self._eid)
        self._eid = count(scheduled)
        return scheduled

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Place a triggered event on the heap ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(
            self._queue, (self.now + delay, priority, next(self._eid), event)
        )

    def schedule_triggered(self, event: Event, priority: int = NORMAL) -> None:
        """Immediate-schedule fast path (``Event.succeed`` / ``fail``).

        Identical to ``schedule(event, delay=0, priority=...)`` minus
        the delay validation — succeed/fail always fire "now".
        """
        heapq.heappush(
            self._queue, (self.now, priority, next(self._eid), event)
        )

    def step(self) -> None:
        """Process the next scheduled event.

        Raises:
            EmptySchedule: If no events remain.
        """
        try:
            when, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events") from None

        self.now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            # An untouched failure crashes the simulation loudly rather
            # than passing silently.
            exc = event._value
            raise exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Args:
            until: ``None`` runs until the schedule is empty.  A number
                runs until the clock reaches it.  An :class:`Event` runs
                until that event is processed (its value is returned).

        Returns:
            The value of ``until`` when it is an event, else ``None``.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self.now:
                raise ValueError(f"until ({at}) is in the past (now={self.now})")
            until = Event(self)
            until._ok = True
            until._value = None
            self.schedule(until, delay=at - self.now, priority=0)

        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed; nothing to run.
                return until.value
            until.callbacks.append(StopSimulation.callback)

        # The event loop is inlined (rather than calling self.step())
        # because it runs once per event: the method dispatch, the
        # try/except per event and the attribute reloads are measurable
        # at 100+ workers.  Semantics are identical to step() in a
        # while-loop.
        queue = self._queue
        pop = heapq.heappop
        try:
            while True:
                try:
                    when, _, _, event = pop(queue)
                except IndexError:
                    raise EmptySchedule("no scheduled events") from None
                self.now = when
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    # An untouched failure crashes the simulation loudly
                    # rather than passing silently.
                    raise event._value
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise RuntimeError(
                    "simulation ran out of events before the awaited event "
                    "triggered (possible deadlock)"
                ) from None
            return None

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now.

        This is the single most frequent engine operation (every
        compute step, transfer and wait goes through it), so the
        constructor + generic-schedule path is inlined here: one object
        allocation, five slot stores, one heappush.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event.defused = False
        event._delay = delay
        event._ok = True
        event._value = value
        heapq.heappush(
            self._queue, (self.now + delay, NORMAL, next(self._eid), event)
        )
        return event

    def process(
        self, generator: Generator, name: Optional[str] = None
    ) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    def __repr__(self) -> str:
        return f"<Environment now={self.now} pending={len(self._queue)}>"
