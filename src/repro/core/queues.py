"""Hop's queue primitives: update queues and token queues.

Three structures from the paper:

* :class:`UpdateQueue` — Section 4.1's tagged FIFO: ``dequeue(m, iter,
  w_id)`` blocks until ``m`` entries with matching tags exist and
  removes them atomically.
* :class:`RotatingUpdateQueue` — Section 6.1's memory-efficient
  implementation: ``max_ig + 1`` sub-queues indexed by
  ``iter mod n_queues`` (rotating registers), with stale entries from
  reused slots discarded at dequeue time.
* :class:`TokenQueue` — Section 4.2's gap-control mechanism: a counted
  token pool; a :class:`TokenGate` blocks on several of them at once.

All blocking is expressed through simulation events so protocol
processes can ``yield`` on them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.update import Update
from repro.sim.engine import Environment
from repro.sim.events import Event


class DequeueRequest(Event):
    """A pending tagged dequeue; succeeds with a list of updates."""

    __slots__ = ("count", "iteration", "sender", "queue")

    def __init__(
        self,
        queue: "UpdateQueue",
        count: int,
        iteration: Optional[int],
        sender: Optional[int],
    ) -> None:
        super().__init__(queue.env)
        self.count = count
        self.iteration = iteration
        self.sender = sender
        self.queue = queue

    def cancel(self) -> bool:
        try:
            self.queue._waiters.remove(self)
            return True
        except ValueError:
            return False

    def __repr__(self) -> str:
        if self.triggered:
            return f"<DequeueRequest served at {id(self):#x}>"
        source = "" if self.sender is None else f" from worker {self.sender}"
        return (
            f"<DequeueRequest waiting for update(s) of iteration "
            f"{self.iteration}{source}: have "
            f"{self.queue.size(self.iteration, self.sender)} of {self.count}>"
        )


class UpdateQueue:
    """Section 4.1's tagged update queue.

    Args:
        env: Simulation environment.
        owner: The worker this queue belongs to (diagnostics).
        capacity: Optional bound; enqueue raises :class:`OverflowError`
            beyond it (the paper's motivation for token queues is
            exactly to keep this bounded).
    """

    def __init__(
        self,
        env: Environment,
        owner: int = -1,
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.env = env
        self.owner = owner
        self.capacity = capacity
        self._entries: List[Update] = []
        self._waiters: List[DequeueRequest] = []
        self.peak_occupancy = 0
        self.total_enqueued = 0
        self.dropped_stale = 0

    # ------------------------------------------------------------------
    # Paper operations
    # ------------------------------------------------------------------
    def enqueue(self, update: Update) -> None:
        """``q.enqueue(update, iter, w_id)`` — tags live on the update."""
        if self.capacity is not None and len(self._entries) >= self.capacity:
            raise OverflowError(
                f"UpdateQueue(owner={self.owner}) overflow at capacity "
                f"{self.capacity}: {update!r} (iteration gap exceeded the "
                "provisioned bound; see Theorem 1 / token queues)"
            )
        self._entries.append(update)
        self.total_enqueued += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        self._dispatch()

    def dequeue(
        self,
        count: int,
        iteration: Optional[int] = None,
        sender: Optional[int] = None,
    ) -> DequeueRequest:
        """Blocking removal of the first ``count`` tag-matched entries.

        Returns an event that succeeds with the list of updates once
        ``count`` matching entries exist (paper's ``dequeue(m, iter,
        w_id)``).
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        request = DequeueRequest(self, count, iteration, sender)
        self._waiters.append(request)
        self._dispatch()
        return request

    def dequeue_available(
        self,
        iteration: Optional[int] = None,
        sender: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Update]:
        """Non-blocking removal of all (or up to ``limit``) matches.

        Implements the second dequeue in Figure 8 (grab whatever extra
        updates already arrived) without blocking.
        """
        matches: List[Update] = []
        remaining: List[Update] = []
        for update in self._entries:
            if update.matches(iteration, sender) and (
                limit is None or len(matches) < limit
            ):
                matches.append(update)
            else:
                remaining.append(update)
        self._entries = remaining
        return matches

    def size(
        self,
        iteration: Optional[int] = None,
        sender: Optional[int] = None,
    ) -> int:
        """Count of entries with matching tags (paper's ``q.size``)."""
        return sum(1 for u in self._entries if u.matches(iteration, sender))

    def discard_older_than(self, iteration: int) -> int:
        """Drop updates from iterations before ``iteration`` (Sec 6.2a).

        Returns the number of stale entries removed.
        """
        before = len(self._entries)
        self._entries = [u for u in self._entries if u.iteration >= iteration]
        dropped = before - len(self._entries)
        self.dropped_stale += dropped
        return dropped

    def resize(self, capacity: Optional[int]) -> None:
        """Re-provision the capacity bound (membership epoch boundary).

        The Section 4.2 bound depends on the in-degree, which changes
        when the membership plane rewires the graph; the new bound
        never shrinks below the current occupancy (entries already
        accepted stay accepted).
        """
        if capacity is None:
            self.capacity = None
            return
        if capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.capacity = max(int(capacity), len(self._entries))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Satisfy waiters (FIFO) whose tag-counts are now available."""
        if not self._waiters:
            return
        progressed = True
        while progressed:
            progressed = False
            for request in list(self._waiters):
                matching = [
                    u
                    for u in self._entries
                    if u.matches(request.iteration, request.sender)
                ]
                if len(matching) >= request.count:
                    taken = matching[: request.count]
                    for update in taken:
                        self._entries.remove(update)
                    self._waiters.remove(request)
                    request.succeed(taken)
                    progressed = True
                    break

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<UpdateQueue owner={self.owner} entries={len(self._entries)} "
            f"waiters={len(self._waiters)}>"
        )


class RotatingUpdateQueue:
    """Section 6.1's rotating multi-queue implementation.

    ``n_queues = max_ig + 1`` sub-queues; an update for iteration ``k``
    lands in slot ``k mod n_queues``.  Because the token queues bound
    the iteration gap by ``max_ig``, a slot can only hold updates for
    one *live* iteration at a time; anything older found in a slot is a
    late/stale update and is discarded at dequeue time (Section 6.2a).

    The interface mirrors :class:`UpdateQueue` so workers can use
    either implementation.
    """

    def __init__(
        self,
        env: Environment,
        max_ig: int,
        owner: int = -1,
    ) -> None:
        if max_ig < 1:
            raise ValueError("max_ig must be >= 1")
        self.env = env
        self.owner = owner
        self.n_queues = max_ig + 1
        self._slots: List[List[Update]] = [[] for _ in range(self.n_queues)]
        self._waiters: List[DequeueRequest] = []
        self.peak_occupancy = 0
        #: Live entry count, maintained incrementally so enqueue does
        #: not re-sum every slot on the hot path.
        self._occupancy = 0
        self.total_enqueued = 0
        self.dropped_stale = 0

    def _slot_of(self, iteration: int) -> List[Update]:
        return self._slots[iteration % self.n_queues]

    def enqueue(self, update: Update) -> None:
        self._slots[update.iteration % self.n_queues].append(update)
        self.total_enqueued += 1
        self._occupancy += 1
        if self._occupancy > self.peak_occupancy:
            self.peak_occupancy = self._occupancy
        if self._waiters:
            self._dispatch()

    def dequeue(
        self,
        count: int,
        iteration: Optional[int] = None,
        sender: Optional[int] = None,
    ) -> DequeueRequest:
        """Blocking dequeue; ``iteration`` is required (slot selection)."""
        if iteration is None:
            raise ValueError(
                "RotatingUpdateQueue.dequeue needs an iteration tag; use "
                "UpdateQueue for staleness-mode sender-matched dequeues"
            )
        request = DequeueRequest(self, count, iteration, sender)
        self._waiters.append(request)
        self._dispatch()
        return request

    def dequeue_available(
        self,
        iteration: Optional[int] = None,
        sender: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Update]:
        if iteration is None:
            raise ValueError("RotatingUpdateQueue needs an iteration tag")
        self._purge_stale(iteration)
        slot = self._slot_of(iteration)
        matches: List[Update] = []
        remaining: List[Update] = []
        for update in slot:
            if update.matches(iteration, sender) and (
                limit is None or len(matches) < limit
            ):
                matches.append(update)
            else:
                remaining.append(update)
        self._slots[iteration % self.n_queues] = remaining
        self._occupancy -= len(matches)
        return matches

    def size(
        self,
        iteration: Optional[int] = None,
        sender: Optional[int] = None,
    ) -> int:
        if iteration is None:
            return sum(
                1
                for slot in self._slots
                for u in slot
                if u.matches(None, sender)
            )
        return sum(
            1 for u in self._slot_of(iteration) if u.matches(iteration, sender)
        )

    def discard_older_than(self, iteration: int) -> int:
        dropped = 0
        for index, slot in enumerate(self._slots):
            keep = [u for u in slot if u.iteration >= iteration]
            dropped += len(slot) - len(keep)
            self._slots[index] = keep
        self.dropped_stale += dropped
        self._occupancy -= dropped
        return dropped

    def _purge_stale(self, live_iteration: int) -> None:
        """Drop reused-slot leftovers older than the live iteration."""
        slot = self._slot_of(live_iteration)
        keep = [u for u in slot if u.iteration >= live_iteration]
        purged = len(slot) - len(keep)
        if purged:
            self.dropped_stale += purged
            self._occupancy -= purged
        self._slots[live_iteration % self.n_queues] = keep

    def _dispatch(self) -> None:
        """Satisfy waiters (FIFO), purging each visited slot as it goes.

        One pass over a request's slot does both jobs: entries older
        than the request's iteration are reused-slot leftovers and are
        dropped (:meth:`_purge_stale`'s rule and counters), the first
        ``count`` tag matches are set aside, the rest stay in order.
        """
        waiters = self._waiters
        progressed = bool(waiters)
        while progressed:
            progressed = False
            for request in waiters:
                iteration = request.iteration
                sender = request.sender
                count = request.count
                index = iteration % self.n_queues
                slot = self._slots[index]
                taken: List[Update] = []
                rest: List[Update] = []
                for update in slot:
                    if update.iteration < iteration:
                        continue
                    if (
                        len(taken) < count
                        and update.iteration == iteration
                        and (sender is None or update.sender == sender)
                    ):
                        taken.append(update)
                    else:
                        rest.append(update)
                stale = len(slot) - len(taken) - len(rest)
                if stale:
                    self.dropped_stale += stale
                    self._occupancy -= stale
                if len(taken) == count:
                    self._slots[index] = rest
                    self._occupancy -= count
                    waiters.remove(request)
                    request.succeed(taken)
                    progressed = True
                    break
                if stale:
                    self._slots[index] = [
                        u for u in slot if u.iteration >= iteration
                    ]

    def __len__(self) -> int:
        return sum(len(slot) for slot in self._slots)

    def __repr__(self) -> str:
        return (
            f"<RotatingUpdateQueue owner={self.owner} "
            f"n_queues={self.n_queues} entries={len(self)}>"
        )


class TokenQueue:
    """Section 4.2's token queue ``TokenQ(owner -> consumer)``.

    Lives at ``owner``; ``consumer`` (an in-coming neighbor of
    ``owner``... in the paper's direction: ``owner in Nout(consumer)``)
    must remove a token to enter a new iteration.  The queue starts
    with ``max_ig - 1`` tokens and the owner inserts one more at the
    top of each iteration, maintaining the invariant

        size == Iter(owner) - Iter(consumer) + max_ig

    Consumers take tokens through a :class:`TokenGate`.  Conservation,
    ``size() == total_inserted - total_acquired``, holds after every
    operation, :meth:`close` and :meth:`reopen` included.
    """

    def __init__(
        self,
        env: Environment,
        owner: int,
        consumer: int,
        initial: int = 0,
    ) -> None:
        if initial < 0:
            raise ValueError("initial token count must be >= 0")
        self.env = env
        self.owner = owner
        self.consumer = consumer
        self._tokens = initial
        self._waiters: List[TokenGate] = []
        self.total_inserted = initial
        self.total_acquired = 0
        self.peak = initial
        #: Set when the owner departed the membership: acquisition is
        #: free (the gap bound through a gone worker is vacuous) and
        #: pending waiters are released, so nobody deadlocks on tokens
        #: a departed worker will never insert.
        self.closed = False

    def size(self) -> int:
        """Current token count (used for straggler self-identification)."""
        return self._tokens

    def put(self, count: int = 1) -> None:
        """Owner inserts ``count`` tokens (top of each iteration / jump)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._tokens += count
        self.total_inserted += count
        self.peak = max(self.peak, self._tokens)
        if self._waiters:
            self._dispatch()

    def close(self) -> None:
        """Owner departed: grant every pending and future acquisition."""
        self.closed = True
        self._dispatch()

    def reopen(self, initial: int = 0) -> None:
        """Owner rejoined: resume gating with a fresh invariant count.

        The reset is booked as what it is: tokens the stale count
        lacked are inserted, a stale surplus is retired as acquired.
        """
        if initial < 0:
            raise ValueError("initial token count must be >= 0")
        self.closed = False
        if initial >= self._tokens:
            self.total_inserted += initial - self._tokens
        else:
            self.total_acquired += self._tokens - initial
        self._tokens = initial
        self.peak = max(self.peak, initial)
        self._dispatch()

    def _take(self, count: int) -> bool:
        """Remove ``count`` tokens if the head of the line may have them.

        A closed queue has no owner left to insert anything, so the
        fabric stands in for it: the tokens are inserted and acquired
        in one step and the pool is untouched.
        """
        if self.closed:
            self.total_inserted += count
        elif self._tokens >= count:
            self._tokens -= count
        else:
            return False
        self.total_acquired += count
        return True

    def _request(self, gate: "TokenGate") -> bool:
        """Serve ``gate`` now, or queue it (FIFO); True when served."""
        if not self._waiters and self._take(gate.count):
            return True
        self._waiters.append(gate)
        return False

    def _dispatch(self) -> None:
        waiters = self._waiters
        while waiters and self._take(waiters[0].count):
            waiters.pop(0)._granted()

    def __repr__(self) -> str:
        return (
            f"<TokenQueue {self.owner}->{self.consumer} "
            f"tokens={self._tokens}>"
        )


class TokenGate(Event):
    """One wait for ``count`` tokens from each of ``queues`` (Figure 7).

    A consumer's whole token acquisition — the request round trip
    (``delay``) and one grant per out-going neighbor — as a single
    event to ``yield``.  It costs at most three heap entries however
    many queues it spans, each standing exactly where the entry that
    decides ordering stood when every queue had its own acquire event
    under an ``AllOf`` behind a ``Timeout``:

    1. a timeout of ``delay`` (the round trip; skipped when ``delay``
       is zero) at which acquisition starts: tokens already present
       are taken on the spot and schedule nothing, and the gate queues
       itself on the rest;
    2. a zero timeout pushed at the *last* grant — at the start when
       nothing was missing, otherwise from the ``put`` / ``close`` /
       ``reopen`` that completes the set.  Earlier grants only ever
       counted toward the total, so they need no heap entry of their
       own;
    3. the gate itself, scheduled when entry 2 is processed; that is
       what resumes the waiting process.
    """

    __slots__ = ("queues", "count", "_missing")

    def __init__(
        self,
        env: Environment,
        queues: Sequence[TokenQueue],
        count: int = 1,
        delay: float = 0.0,
    ) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        super().__init__(env)
        self.queues = queues
        self.count = count
        #: Grants still owed; ``None`` until acquisition starts.
        self._missing: Optional[int] = None
        if delay:
            env.timeout(delay).callbacks.append(self._start)
        else:
            self._start()

    def _start(self, _round_trip: Optional[Event] = None) -> None:
        missing = 0
        for queue in self.queues:
            if not queue._request(self):
                missing += 1
        self._missing = missing
        if not missing:
            self._last_grant()

    def _last_grant(self) -> None:
        # A zero timeout stands where the last grant's own event stood;
        # the gate fires when it is processed, not before.
        self.env.timeout(0).callbacks.append(self._fire)

    def _granted(self) -> None:
        """A queue this gate was waiting in has handed over its tokens."""
        self._missing -= 1
        if not self._missing:
            self._last_grant()

    def _fire(self, _last_grant: Event) -> None:
        self.succeed()

    def pending(self) -> List[TokenQueue]:
        """The queues that still owe this gate its tokens."""
        if self._missing is None:
            return list(self.queues)
        return [queue for queue in self.queues if self in queue._waiters]

    def __repr__(self) -> str:
        owners = [queue.owner for queue in self.pending()]
        if owners:
            return f"<TokenGate waiting for tokens from owners {owners}>"
        return f"<TokenGate granted at {id(self):#x}>"
