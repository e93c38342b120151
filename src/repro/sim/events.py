"""Event primitives for the discrete-event simulation engine.

The simulation substrate follows the classic event/process model (as
popularized by SimPy, re-implemented here from scratch): an
:class:`Event` is a one-shot occurrence with a value, processes wait on
events by yielding them, and the :class:`~repro.sim.engine.Environment`
drives everything from a time-ordered heap.

Only the engine ever *processes* events; user code creates them,
triggers them (``succeed`` / ``fail``) and waits on them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.engine import Environment

#: Sentinel for "this event has no value yet".
PENDING = object()

#: Scheduling priority for must-run-first events (process start-up).
URGENT = 0
#: Scheduling priority for ordinary events.
NORMAL = 1


class StopSimulation(Exception):
    """Internal control-flow exception used by ``Environment.run(until=...)``."""

    @classmethod
    def callback(cls, event: "Event") -> None:
        """Event callback that stops the simulation with the event's value."""
        if event.ok:
            raise cls(event.value)
        raise event.value


class Event:
    """A one-shot occurrence in simulated time.

    Lifecycle: *pending* -> *triggered* (value set, scheduled on the
    event heap) -> *processed* (callbacks executed by the engine).

    ``__slots__`` keeps events dict-free: the engine creates several
    events per message and per iteration, so attribute storage is on
    the simulator's hottest allocation path.

    Attributes:
        env: The environment this event belongs to.
        callbacks: Functions ``cb(event)`` invoked when the event is
            processed.  ``None`` once processed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Failed events raise out of ``Environment.step`` unless some
        #: callback marks them as handled ("defused").
        self.defused = False

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the engine has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule_triggered(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule_triggered(self, priority)
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` simulated time units.

    Prefer ``env.timeout(delay)``: it builds the same object through an
    inlined fast path that skips the generic ``schedule`` machinery.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self.defused = False
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    @property
    def delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay} at {id(self):#x}>"
