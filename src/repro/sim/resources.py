"""Capacity-limited resources (counting semaphores) for the simulator.

Used to model an exclusive lock on a parameter copy (AD-PSGD's atomic
averaging).  The shared NIC is a bare FIFO of its own
(:class:`~repro.net.network.SharedNic`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class Request(Event):
    """A pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A resource with ``capacity`` concurrently usable slots.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            resource.release(req)
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: list = []
        self._waiters: deque = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Request:
        """Ask for a slot; the returned event succeeds when granted."""
        request = Request(self)
        self._waiters.append(request)
        self._grant()
        return request

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(
                "release() of a request that does not hold the resource"
            ) from None
        self._grant()

    def _grant(self) -> None:
        while self._waiters and len(self.users) < self.capacity:
            request = self._waiters.popleft()
            self.users.append(request)
            request.succeed()

    def __repr__(self) -> str:
        return (
            f"<Resource capacity={self.capacity} in_use={len(self.users)} "
            f"waiting={len(self._waiters)}>"
        )
