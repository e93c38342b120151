"""The network: asynchronous delivery of messages between workers.

``Network.send`` is non-blocking (like the paper's Send operation): it
spawns a delivery process that waits for the link's transfer time and
then invokes a delivery action (usually an enqueue into the receiver's
update queue).  ``Network.transfer`` models a blocking transfer
(re-sync pulls, state copies).

A :class:`SharedNic` serializes transfers through a single interface,
modeling the parameter-server hotspot: when ``n`` workers push to the
PS at once, their transfers queue up on the PS NIC.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Optional, Sequence

import heapq

from repro.net.links import LinkModel
from repro.net.message import Message
from repro.sim.engine import Environment
from repro.sim.events import NORMAL, Event
from repro.sim.process import Process
from repro.sim.trace import StatAccumulator


class Delivery(Event):
    """A scheduled message delivery (the closure-free send fast path).

    One pre-triggered event on the heap whose single callback hands the
    message (or bare payload, for :meth:`Network.push`) to each
    receiver in ``delivers`` order — no generator, no
    :class:`~repro.sim.process.Process` bootstrap, no per-message name
    formatting.  Replaces the former ``deliver-<kind>`` delivery
    process for plain-link sends (shared-NIC sends still need a process
    to queue through the uplink).

    Several receivers share one heap entry only through
    :meth:`Network.fan_out`, whose copies would otherwise hold
    consecutive insertion ids at one ``(time, priority)``: nothing can
    sort between them, so running them back to back is the same event
    order with fewer heap round trips.
    """

    __slots__ = ("_delivers", "_message")

    def __init__(
        self,
        env: Environment,
        delay: float,
        delivers: Sequence[Callable[[Any], None]],
        message: Any,
    ) -> None:
        self.env = env
        self.defused = False
        self._ok = True
        self._value = None
        self._delivers = delivers
        self._message = message
        self.callbacks = [self._run]
        heapq.heappush(
            env._queue, (env.now + delay, NORMAL, next(env._eid), self)
        )

    def _run(self, event: Event) -> None:
        message = self._message
        for deliver in self._delivers:
            deliver(message)

    def __repr__(self) -> str:
        return f"<Delivery {self._message!r} at {id(self):#x}>"


class Network:
    """Message fabric over a :class:`~repro.net.links.LinkModel`.

    Args:
        env: Simulation environment.
        links: Link timing model.
        egress_nics: Optional per-worker shared egress NICs.  When a
            message's source has one and the destination is on a
            different machine, the message's serialization time is paid
            *through the NIC* (serialized with the machine's other
            outbound traffic) instead of on a private link — this is
            how co-located workers contend for their host's uplink.
        machine_of: Worker -> machine map used to decide whether a
            transfer leaves the machine.  ``None`` treats every
            non-self edge as cross-machine.
        message_loss: Optional loss-with-retransmit model (scenario
            fault injection, see
            :class:`repro.scenarios.faults.MessageLoss`).  A dropped
            attempt costs the transfer time plus the retransmit
            timeout; delivery stays eventual, so protocols cannot
            deadlock on a lost update.
    """

    def __init__(
        self,
        env: Environment,
        links: Optional[LinkModel] = None,
        egress_nics: Optional[Dict[int, "SharedNic"]] = None,
        machine_of: Optional[Sequence[int]] = None,
        message_loss=None,
    ) -> None:
        self.env = env
        self.links = links or LinkModel()
        self.egress_nics = egress_nics or {}
        self.machine_of = list(machine_of) if machine_of is not None else None
        self.message_loss = message_loss
        #: Optional membership runtime (elastic clusters): deliveries
        #: are routed by membership epoch — a message addressed to a
        #: worker that departed while it was in flight is counted as
        #: dropped instead of landing in a dead queue.  ``None`` (the
        #: static case) keeps the zero-overhead fast path.
        self.membership = None
        #: Cache of membership-checked delivery callbacks, keyed by
        #: ``(dst, deliver, size, control)`` — the tuple is stable per
        #: edge and message class (bound queue enqueues, constant
        #: per-stream sizes), so elastic runs stay closure-free per
        #: message like the static fast path.
        self._membership_checked: Dict[tuple, Callable[[Any], None]] = {}
        #: Payload bytes actually delivered.  Static runs credit at
        #: launch time (delivery is guaranteed: message loss models
        #: retransmit-until-success); elastic runs credit at delivery,
        #: so a message whose destination departs mid-flight lands in
        #: :attr:`bytes_dropped` instead.
        self.bytes_sent = StatAccumulator()
        #: Payload bytes of in-flight messages dropped by membership
        #: departures.  ``bytes_sent + bytes_dropped`` equals the sum
        #: of every launched payload's size once the event queue
        #: drains.
        self.bytes_dropped = StatAccumulator()
        #: Control-plane bytes (ACKs, tokens, RPCs) — charged for
        #: timing but kept out of the payload-volume stats they used
        #: to pollute.  Counted at launch, delivered or not (control
        #: messages are tiny by construction).
        self.control_bytes = StatAccumulator()
        #: Extra bytes burned by lost-and-retransmitted attempts
        #: (:class:`~repro.scenarios.faults.MessageLoss`); the
        #: delivered copy itself is counted exactly once, above.
        self.bytes_retransmitted = StatAccumulator()
        #: Legacy aggregate: every byte offered to the fabric —
        #: payload and control alike — accumulated at launch time in
        #: launch order, regardless of the delivery outcome.  This is
        #: the quantity the recorded golden-stats cells pin (their
        #: ``bytes_sent`` key predates the split), so its accumulation
        #: points and order must never move.
        self.bytes_attempted = StatAccumulator()
        self.messages_sent = 0
        # Uniform-fabric fast path: a plain LinkModel with no per-edge
        # overrides gives every cross-worker message the same
        # latency/bandwidth — resolve them once instead of per send.
        # (Link-model subclasses, e.g. time-varying scenario wrappers,
        # never take this path.)
        self._uniform_link = (
            self.links.default
            if type(self.links) is LinkModel and not self.links.overrides
            else None
        )

    @property
    def messages_dropped(self) -> int:
        dropped = self.message_loss.messages_dropped if self.message_loss else 0
        if self.membership is not None:
            dropped += self.membership.messages_dropped
        return dropped

    def _membership_deliver(
        self,
        dst: int,
        deliver: Callable[[Any], None],
        size: float = 0.0,
        control: bool = False,
    ):
        """Delivery callback routed by membership epoch (elastic runs).

        The active check happens at *delivery* time: a message launched
        toward a live worker that departs mid-flight is dropped and
        counted, never enqueued into a dead worker's queue.  Payload
        byte accounting resolves here too — delivered bytes credit
        :attr:`bytes_sent`, dropped bytes :attr:`bytes_dropped` (the
        pre-split accounting credited both at launch, so departures
        inflated the delivered-traffic stat).  Wrappers are cached per
        ``(dst, deliver, size, control)`` so the hot path allocates no
        closure per message.
        """
        key = (dst, deliver, size, control)
        checked = self._membership_checked.get(key)
        if checked is None:
            membership = self.membership
            if control:
                # Control bytes are counted at launch; only the drop
                # tally resolves at delivery time.
                def checked(payload: Any) -> None:
                    if membership.is_active(dst):
                        deliver(payload)
                    else:
                        membership.messages_dropped += 1

            else:
                bytes_sent = self.bytes_sent
                bytes_dropped = self.bytes_dropped

                def checked(payload: Any) -> None:
                    if membership.is_active(dst):
                        bytes_sent.add(size)
                        deliver(payload)
                    else:
                        membership.messages_dropped += 1
                        bytes_dropped.add(size)

            self._membership_checked[key] = checked
        return checked

    def _loss_penalty(
        self, src: int, dst: int, transfer_time: float, size: float
    ) -> float:
        """Extra delay for lost attempts of one (src != dst) message."""
        if self.message_loss is None or src == dst:
            return 0.0
        # Draws happen synchronously at send time, so the draw order —
        # and with it the whole run — stays deterministic.
        drops = self.message_loss.draw_drops()
        if drops:
            self.bytes_retransmitted.add(drops * size)
        return drops * (transfer_time + self.message_loss.retransmit_timeout)

    def _egress_nic(self, src: int, dst: int) -> Optional["SharedNic"]:
        if src == dst or src not in self.egress_nics:
            return None
        if self.machine_of is not None and self.machine_of[src] == self.machine_of[dst]:
            return None
        return self.egress_nics[src]

    def _plain_transfer(self, src: int, dst: int, size: float) -> float:
        """Delivery delay on a plain (non-NIC) link, loss included.

        The single source of truth for both :meth:`send` and
        :meth:`push` — the uniform-link shortcut, the link-model
        fallback and the loss-penalty gate must never diverge between
        the two hot paths.
        """
        link = self._uniform_link
        if link is not None and src != dst:
            transfer = link.latency + size / link.bandwidth
        else:
            transfer = self.links.transfer_time(src, dst, size)
        if self.message_loss is not None:
            transfer += self._loss_penalty(src, dst, transfer, size)
        return transfer

    def send(
        self,
        message: Message,
        deliver: Callable[[Message], None],
        control: bool = False,
        credit: bool = True,
    ) -> Event:
        """Fire-and-forget delivery after the link transfer time.

        ``control=True`` classifies the message as control-plane
        traffic (ACKs, tokens): charged for timing, counted in
        :attr:`control_bytes`, excluded from the payload-volume stats.
        ``credit=False`` means a delivery-outcome crediting wrapper is
        already installed in ``deliver`` (the elastic :meth:`push`
        fallback), so this launch site must not double-count.

        Returns the event that fires at delivery: a :class:`Delivery`
        on plain links, a :class:`~repro.sim.process.Process` when the
        transfer serializes through a shared egress NIC.
        """
        message.sent_at = self.env.now
        self.messages_sent += 1
        self.bytes_attempted.add(message.size)
        if control:
            self.control_bytes.add(message.size)
        elif credit:
            self.bytes_sent.add(message.size)
        # Common case first: no egress NICs configured at all.
        nic = (
            self._egress_nic(message.src, message.dst)
            if self.egress_nics
            else None
        )

        if nic is None:
            delay = self._plain_transfer(
                message.src, message.dst, message.size
            )
            return Delivery(self.env, delay, (deliver,), message)
        else:
            # Serialization happens at the shared machine uplink; only
            # the propagation latency remains on the link itself.  A
            # lost attempt still pays the full (estimated) transfer —
            # NIC serialization plus propagation — before the retry,
            # matching the non-NIC path's per-drop cost.
            latency = self.links.link(message.src, message.dst).latency
            attempt_cost = (
                nic.latency + message.size / nic.bandwidth + latency
            )
            penalty = self._loss_penalty(
                message.src, message.dst, attempt_cost, message.size
            )

            # Shared-NIC slow path: runs only for egress-serialized
            # transfers, so the per-message generator closure is an
            # accepted cost here.
            def delivery(env: Environment):  # repro: ignore[perf-send-closure]
                yield from nic.transfer(message.size)
                yield env.timeout(latency + penalty)
                deliver(message)

            # No per-message f-string name: the generator's own name
            # suffices for diagnostics.
            return self.env.process(delivery(self.env))

    def push(
        self,
        src: int,
        dst: int,
        size: float,
        payload: Any,
        deliver: Callable[[Any], None],
        control: bool = False,
    ) -> Event:
        """Message-object-free send for protocol hot paths.

        Timing, counters and loss injection are identical to
        :meth:`send`; the payload is handed to ``deliver`` directly at
        delivery time, skipping the :class:`~repro.net.message.Message`
        wrapper (one object construction per message on the fan-out
        path).  ``control=True`` classifies the message as
        control-plane traffic (see :meth:`send`).  Transfers that must
        serialize through a shared egress NIC fall back to the full
        :meth:`send` machinery.
        """
        if self.membership is not None:
            # Wrapped before either branch so the egress-NIC fallback
            # routes by membership epoch too.  The wrapper owns the
            # delivered/dropped byte crediting.
            deliver = self._membership_deliver(dst, deliver, size, control)
        if self.egress_nics and self._egress_nic(src, dst) is not None:
            message = Message(
                src=src, dst=dst, kind="update", payload=payload, size=size
            )
            # Egress-NIC fallback already pays for a Message object and
            # the full send() machinery; one unwrapping lambda per
            # serialized transfer is noise by comparison.
            return self.send(
                message,
                deliver=lambda m: deliver(m.payload),  # repro: ignore[perf-send-closure]
                control=control,
                credit=self.membership is None,
            )
        self.messages_sent += 1
        self.bytes_attempted.add(size)
        if control:
            self.control_bytes.add(size)
        elif self.membership is None:
            self.bytes_sent.add(size)
        delay = self._plain_transfer(src, dst, size)
        return Delivery(self.env, delay, (deliver,), payload)

    def fan_out(
        self,
        src: int,
        dsts: Sequence[int],
        size: float,
        payload: Any,
        delivers: Sequence[Callable[[Any], None]],
        control: bool = False,
    ) -> None:
        """One payload to several remote destinations (Figure 4's Send).

        Equivalent to ``push(src, dst, size, payload, deliver, control)``
        for each ``(dst, deliver)`` pair in order.  When every copy is
        certain to share one delay — the uniform fabric, no loss draws,
        no egress NIC to queue through, no membership routing — each
        byte counter is credited once for all the copies
        (:meth:`~repro.sim.trace.StatAccumulator.add_repeated`, bit for
        bit the per-copy adds) and the copies ride a single
        :class:`Delivery`.  Anything else takes the per-message path.
        """
        link = self._uniform_link
        if (
            link is None
            or len(dsts) < 2
            or self.message_loss is not None
            or self.egress_nics
            or self.membership is not None
            or src in dsts
        ):
            push = self.push
            for dst, deliver in zip(dsts, delivers):
                push(src, dst, size, payload, deliver, control)
            return
        copies = len(dsts)
        self.messages_sent += copies
        self.bytes_attempted.add_repeated(size, copies)
        (self.control_bytes if control else self.bytes_sent).add_repeated(
            size, copies
        )
        Delivery(
            self.env, link.latency + size / link.bandwidth, delivers, payload
        )

    def transfer(self, src: int, dst: int, size: float) -> Event:
        """An event that fires when a transfer completes (blocking send).

        The caller blocks until the transfer finishes (re-sync pulls,
        state copies), so the bytes are credited as delivered at launch.
        """
        self.messages_sent += 1
        self.bytes_attempted.add(size)
        self.bytes_sent.add(size)
        duration = self.links.transfer_time(src, dst, size)
        return self.env.timeout(
            duration + self._loss_penalty(src, dst, duration, size)
        )

    def __repr__(self) -> str:
        return f"<Network messages={self.messages_sent}>"


class SharedNic:
    """A serializing network interface (the PS hotspot model).

    Transfers through the NIC queue up and are served one at a time at
    the NIC's bandwidth, so ``n`` simultaneous pushes of size ``s``
    take ``n * s / bandwidth`` — exactly the hotspot behavior that
    makes decentralized training win Figure 13.

    A bare FIFO: a busy flag and a deque of grant events.  A transfer
    on an idle NIC is granted at once and one behind a busy NIC when the
    transfer ahead releases it; either way its grant is scheduled where
    a capacity-1 :class:`~repro.sim.resources.Resource` would schedule
    the ``Request`` (``tests/net/test_shared_nic.py`` keeps that
    spelling as the oracle).

    Usage inside a process::

        yield from nic.transfer(size)
    """

    __slots__ = ("env", "bandwidth", "latency", "busy_time", "_busy", "_waiting")

    def __init__(
        self,
        env: Environment,
        bandwidth: float = 125.0,
        latency: float = 1e-4,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.busy_time = 0.0
        self._busy = False
        #: Grant events of the transfers queued behind the busy one.
        self._waiting: deque = deque()

    def transfer(self, size: float):
        """Generator: acquire the NIC, hold it for the serialization time."""
        if size < 0:
            raise ValueError(f"negative message size {size}")
        env = self.env
        grant = Event(env)
        if self._busy:
            self._waiting.append(grant)
        else:
            self._busy = True
            grant.succeed()
        yield grant
        try:
            start = env.now
            yield env.timeout(self.latency + size / self.bandwidth)
            self.busy_time += env.now - start
        finally:
            if self._waiting:
                self._waiting.popleft().succeed()
            else:
                self._busy = False

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def __repr__(self) -> str:
        return f"<SharedNic bw={self.bandwidth} busy={self.busy_time:.3f}>"
