"""Generator-based simulation processes.

A process wraps a Python generator.  The generator yields
:class:`~repro.sim.events.Event` objects; the process resumes when the
yielded event fires, receiving the event's value at the ``yield``
expression.  A process is itself an event that triggers when the
generator returns (with the generator's return value) or raises.  A
finished process lets go of its generator, so a finished frame's
locals live no longer than the process's own result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.events import URGENT, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class Process(Event):
    """A running simulation process.

    Args:
        env: The owning environment.
        generator: The generator to execute.
        name: Optional human-readable name (for debugging/tracing).
    """

    __slots__ = ("_generator", "name", "_target", "_send", "_throw", "_wake")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Bound methods cached once: each is called once per event.
        self._send = generator.send
        self._throw = generator.throw
        self._wake = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = None

        # Kick the process off via an initialization event so that it
        # starts inside the engine loop, not synchronously at creation.
        # Built inline (same fields Event.__init__ + succeed() would
        # set) — process spawn is on the per-message hot path.
        init = Event.__new__(Event)
        init.env = env
        init.defused = False
        init._ok = True
        init._value = None
        init.callbacks = [self._wake]
        env.schedule_triggered(init, URGENT)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is waiting on (``None`` if not waiting)."""
        return self._target

    # ------------------------------------------------------------------
    # Resumption
    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        while True:
            try:
                if event._ok:
                    target = self._send(event._value)
                else:
                    # The exception is being delivered into the process,
                    # which counts as handling it.
                    event.defused = True
                    target = self._throw(event._value)
            except StopIteration as stop:
                self._release()
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._release()
                self.fail(exc)
                return

            if not isinstance(target, Event):
                error = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                # Deliver the misuse as a process failure.
                try:
                    self._generator.throw(error)
                except BaseException as exc:
                    self._release()
                    self.fail(exc)
                return

            callbacks = target.callbacks
            if callbacks is None:
                # The event already fired and ran its callbacks (it is
                # processed); continue synchronously with its value.
                event = target
                continue

            callbacks.append(self._wake)
            self._target = target
            return

    def _release(self) -> None:
        """Drop the finished generator and its cached methods."""
        self._target = self._generator = self._send = self._throw = None
        self._wake = None  # a bound _resume: a cycle through the process

    def __repr__(self) -> str:
        state = (
            "finished"
            if self.triggered
            else f"waiting on {self._target!r}"
            if self._target is not None
            else "starting"
        )
        return f"<Process {self.name!r} {state}>"
