"""Fault injection: crashes, link flaps, message loss.

A :class:`FaultPlan` composes with *any* slowdown model — Section 3.4's
claim that backup workers tolerate "even accidental node crashes" needs
crashes injected on top of whatever heterogeneity is active.

Three fault kinds:

* :class:`CrashEvent` — a worker dies at a given iteration.  With a
  ``downtime_iters`` it is a *crash-restart*: the worker goes dark for
  that many iteration-equivalents, re-syncs parameters from a live
  in-neighbor, and resumes.  Without one it is a permanent fail-stop.
  The Hop cluster implements the full semantics natively (lifecycle
  events, neighbor re-sync, Theorem 2 blast radius); for protocols
  without native crash support a restart degrades to an equivalent
  compute stall via :class:`CrashStallSlowdown`, which is exactly what
  a crash looks like from the outside of a black-box worker.
* :class:`LinkFlap` — during ``[start, end)`` simulated seconds the
  affected edges are ``factor`` times slower (latency *and*
  bandwidth).  :class:`FlappingLinkModel` wraps any
  :class:`~repro.net.links.LinkModel`; the simulation clock is bound by
  :meth:`~repro.protocols.base.ProtocolCluster.run` at run start.
* :class:`MessageLoss` — each network message is dropped with
  probability ``p`` and retransmitted after a timeout (the TCP view of
  loss: lost traffic costs time, delivery stays eventual, so no
  protocol can deadlock on an absent update).  Hooked into
  :class:`~repro.net.network.Network`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.net.links import Link, LinkModel
from repro.scenarios.models import SlowdownModel
from repro.sim.rng import RngStreams


# ----------------------------------------------------------------------
# Crashes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrashEvent:
    """One worker failure.

    Args:
        worker: The worker that fails.
        at_iteration: Iteration at whose start the failure hits.
        downtime_iters: Crash-restart downtime, measured in multiples
            of the worker's base iteration compute time (scale-free
            across workloads).  ``None`` means permanent fail-stop.
        resync: Whether the restarted worker copies parameters from a
            live in-neighbor (vs resuming from its stale pre-crash
            state).
    """

    worker: int
    at_iteration: int
    downtime_iters: Optional[float] = None
    resync: bool = True

    def __post_init__(self) -> None:
        if self.at_iteration < 0:
            raise ValueError("at_iteration must be >= 0")
        if self.downtime_iters is not None and self.downtime_iters < 0:
            raise ValueError("downtime_iters must be >= 0")

    @property
    def permanent(self) -> bool:
        return self.downtime_iters is None

    def describe(self) -> str:
        if self.permanent:
            return f"crash(w{self.worker}@{self.at_iteration})"
        return (
            f"crash-restart(w{self.worker}@{self.at_iteration}, "
            f"down={self.downtime_iters:g} iters)"
        )


class CrashStallSlowdown(SlowdownModel):
    """Generic crash-restart fallback: the downtime as a compute stall.

    For protocols without native crash semantics, a worker that is dark
    for ``d`` iteration-equivalents at iteration ``k`` is
    indistinguishable (to its peers) from one whose iteration ``k``
    took ``1 + d`` times as long.  Permanent crashes have no safe
    generic encoding (they deadlock synchronous protocols by
    construction), so they are rejected here and gated at the scenario
    layer instead.
    """

    def __init__(self, crashes: Tuple[CrashEvent, ...]) -> None:
        for event in crashes:
            if event.permanent:
                raise ValueError(
                    "permanent crashes have no generic stall encoding; "
                    "use a protocol with native crash support (hop)"
                )
        self._stalls: Dict[Tuple[int, int], float] = {}
        for event in crashes:
            key = (event.worker, event.at_iteration)
            self._stalls[key] = (
                self._stalls.get(key, 1.0) + float(event.downtime_iters)
            )

    def factor(self, worker: int, iteration: int) -> float:
        return self._stalls.get((worker, iteration), 1.0)

    def extra(self, worker: int, iteration: int) -> float:
        """The downtime alone, in base-iteration units (0 off-crash)."""
        return self._stalls.get((worker, iteration), 1.0) - 1.0

    def describe(self) -> str:
        inner = ", ".join(
            f"w{w}@{k}:+{f - 1:g}" for (w, k), f in sorted(self._stalls.items())
        )
        return f"crash-stall[{inner}]"


class StallOverlaySlowdown(SlowdownModel):
    """A slowdown with crash downtime *added* on top.

    ``duration = base * slowdown`` and a crash costs ``downtime_iters *
    base`` of absolute dead time, so the combined factor is
    ``slowdown + downtime_iters`` — additive, exactly matching the
    native hop semantics (``worker.py`` charges the downtime as a flat
    timeout).  Multiplying instead (plain :class:`ComposedSlowdown`)
    would scale the outage by whatever slowdown factor happened to land
    on the crash iteration.
    """

    def __init__(self, inner: SlowdownModel, stall: CrashStallSlowdown) -> None:
        self.inner = inner
        self.stall = stall

    def factor(self, worker: int, iteration: int) -> float:
        return self.inner.factor(worker, iteration) + self.stall.extra(
            worker, iteration
        )

    def describe(self) -> str:
        return f"{self.inner.describe()} + {self.stall.describe()}"


# ----------------------------------------------------------------------
# Link flaps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkFlap:
    """A temporary degradation window for some (or all) edges."""

    start: float
    end: float
    factor: float
    edges: Optional[Tuple[Tuple[int, int], ...]] = None  # None = every edge

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("flap window must have end > start")
        if self.factor <= 0:
            raise ValueError("flap factor must be positive")

    def applies(self, src: int, dst: int, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        return self.edges is None or (src, dst) in self.edges


class FlappingLinkModel(LinkModel):
    """A :class:`LinkModel` whose links degrade during flap windows.

    The model needs the simulated clock; clusters bind it at run start
    (``bind_clock``).  Unbound, it behaves as at time 0 — link models
    are queried only during a run, so in practice the clock is always
    bound first.
    """

    def __init__(self, base: LinkModel, flaps: Tuple[LinkFlap, ...]) -> None:
        super().__init__(
            default=base.default, overrides=base.overrides, local=base.local
        )
        self.base = base
        self.flaps = tuple(flaps)
        self._clock = None

    def bind_clock(self, clock) -> None:
        """Attach a ``() -> now`` callable (done by ProtocolCluster.run)."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def link(self, src: int, dst: int) -> Link:
        resolved = self.base.link(src, dst)
        if src == dst:
            return resolved
        now = self.now
        for flap in self.flaps:
            if flap.applies(src, dst, now):
                resolved = resolved.scaled(flap.factor)
        return resolved

    def __repr__(self) -> str:
        return f"<FlappingLinkModel flaps={len(self.flaps)} base={self.base!r}>"


# ----------------------------------------------------------------------
# Message loss
# ----------------------------------------------------------------------
class MessageLoss:
    """Loss-with-retransmit model for :class:`~repro.net.network.Network`.

    Every send draws the number of lost transmission attempts from a
    (truncated) geometric distribution; each lost attempt costs the
    transfer time plus ``retransmit_timeout`` before the retry.  The
    message always arrives eventually (after at most ``max_retries``
    drops), so loss shows up as delay and counters, never as a missing
    protocol message — which is what keeps every registered protocol
    deadlock-free under the ``lossy-net`` scenario family.
    """

    def __init__(
        self,
        probability: float,
        retransmit_timeout: float = 0.05,
        max_retries: int = 16,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {probability}")
        if retransmit_timeout < 0:
            raise ValueError("retransmit_timeout must be >= 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.probability = float(probability)
        self.retransmit_timeout = float(retransmit_timeout)
        self.max_retries = int(max_retries)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.messages_dropped = 0

    def draw_drops(self) -> int:
        """Number of lost attempts before this message gets through."""
        drops = 0
        while drops < self.max_retries and self.rng.random() < self.probability:
            drops += 1
        self.messages_dropped += drops
        return drops

    def describe(self) -> str:
        return (
            f"loss(p={self.probability:g}, "
            f"retransmit={self.retransmit_timeout:g}s)"
        )


# ----------------------------------------------------------------------
# The composed plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """Everything a scenario injects besides compute slowdown."""

    crashes: Tuple[CrashEvent, ...] = ()
    link_flaps: Tuple[LinkFlap, ...] = ()
    loss_probability: float = 0.0
    loss_retransmit: float = 0.05

    def __post_init__(self) -> None:
        seen = set()
        for event in self.crashes:
            if event.worker in seen:
                raise ValueError(
                    f"multiple crash events for worker {event.worker}"
                )
            seen.add(event.worker)

    @property
    def empty(self) -> bool:
        return not (self.crashes or self.link_flaps or self.loss_probability)

    def crash_events(self) -> Dict[int, CrashEvent]:
        return {event.worker: event for event in self.crashes}

    def stall_model(self) -> Optional[SlowdownModel]:
        """The generic (non-native) encoding of the crash events."""
        if not self.crashes:
            return None
        return CrashStallSlowdown(self.crashes)

    def wrap_links(self, base: LinkModel) -> LinkModel:
        if not self.link_flaps:
            return base
        return FlappingLinkModel(base, self.link_flaps)

    def message_loss(self, streams: RngStreams) -> Optional[MessageLoss]:
        if not self.loss_probability:
            return None
        return MessageLoss(
            probability=self.loss_probability,
            retransmit_timeout=self.loss_retransmit,
            rng=streams.fresh("message-loss"),
        )

    def describe(self) -> str:
        parts = [event.describe() for event in self.crashes]
        if self.link_flaps:
            parts.append(f"{len(self.link_flaps)} link flap(s)")
        if self.loss_probability:
            parts.append(f"loss p={self.loss_probability:g}")
        return " + ".join(parts) if parts else "no faults"
