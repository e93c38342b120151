"""The NOTIFY-ACK protocol [Kadav & Kruus 2016], the paper's foil.

Serial computation graph (Figure 2a) plus the backward ACK edge: a
worker may not Send iteration ``k``'s update until every out-going
neighbor has ACKed consumption of iteration ``k-1``'s.  This solves
the mixed-version problem but over-restricts the iteration gap to

    Iter(i) - Iter(j) <= min(len(Path_{j->i}), 2 * len(Path_{i->j}))

(Section 3.3), which is what prevents backup workers and bounded
staleness from helping — the motivation for Hop's queue-based design.

Elasticity: NOTIFY-ACK inherits hop's membership lifecycle (drain /
rewire / re-sync, :class:`~repro.membership.NotifyAckMembership`).
The serial gating graph is repaired per directed edge: ACK channels
owned by departed workers are closed, added edges get their channel
re-primed with the implicit ACK(-1), and sends, receives and ACKs are
all gated by the edge's activation iteration so no worker ever blocks
on a message that predates an edge or postdates a departure.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.gap import GapTracker
from repro.core.queues import TokenGate, TokenQueue, UpdateQueue
from repro.core.reducers import mean_reduce
from repro.core.update import Update
from repro.hetero.compute import ComputeModel
from repro.net.message import CONTROL_SIZE
from repro.net.network import Network
from repro.sim.engine import Environment
from repro.sim.trace import StatAccumulator, Tracer


class NotifyAckWorker:
    """One worker running NOTIFY-ACK (serial graph + ACK gating)."""

    def __init__(
        self,
        wid: int,
        env: Environment,
        topology,
        model,
        optimizer,
        batcher,
        compute,
        compute_model: ComputeModel,
        network: Network,
        update_queues: Dict[int, UpdateQueue],
        ack_queues: Dict[Tuple[int, int], TokenQueue],
        state,
        gap_tracker: GapTracker,
        tracer: Tracer,
        max_iter: int,
        update_size: float,
    ) -> None:
        self.wid = wid
        self.env = env
        self.topology = topology
        self.model = model
        self.optimizer = optimizer
        self.batcher = batcher
        #: The run's :class:`~repro.ml.compute.ComputePool`.
        self.compute = compute
        self.compute_model = compute_model
        self.network = network
        self.update_queues = update_queues
        self.ack_queues = ack_queues
        self.state = state
        self.gap_tracker = gap_tracker
        self.tracer = tracer
        self.max_iter = max_iter
        self.update_size = update_size
        #: Wire size of one outgoing update (compressed pricing);
        #: equals ``update_size`` dense.  Set by the cluster.
        self.wire_size = update_size
        #: Per-worker error-feedback compressor (reference mode);
        #: ``None`` keeps the dense fast path.  Set by the cluster.
        self.compressor = None

        self.in_neighbors = topology.in_neighbors(wid, include_self=True)
        self.out_neighbors = topology.out_neighbors(wid, include_self=True)
        self.in_degree = len(self.in_neighbors)
        self._ack_sources = topology.out_neighbors(wid, include_self=False)
        self._ack_targets = topology.in_neighbors(wid, include_self=False)
        self._remote_in = tuple(j for j in self.in_neighbors if j != wid)

        #: Membership plane (elastic runs only; set by the cluster).
        #: ``None`` keeps every static path untouched.
        self.membership = None
        #: This worker's scripted churn event, if any (set by cluster).
        self.churn_event = None
        #: True while dark (membership departure or not-yet-joined late
        #: worker); peers must not re-sync from a dark worker.
        self.down = False
        #: True once this worker has left the membership (until rejoin).
        self.departed = False
        self.crashed = False  # notify_ack has no crash path; resync compat
        #: Other workers by wid; set by the cluster so a joiner can
        #: re-sync parameters from a live in-neighbor.
        self.peers: Dict[int, "NotifyAckWorker"] = {}
        #: Per-edge activation iterations (membership plane; empty and
        #: unread in static runs).
        self._in_activation: Dict[int, int] = {}
        self._out_activation: Dict[int, int] = {}
        self.iterations_skipped = 0

        self.iterations_completed = 0
        self.iteration_durations = StatAccumulator()
        self.ack_wait = StatAccumulator()
        self.recv_wait = StatAccumulator()
        self.losses = StatAccumulator()
        self.final_params: np.ndarray = model.get_params_copy()
        #: Latest parameter vector (snapshot joiners re-sync from).
        self.current_params: np.ndarray = model.get_params_copy()
        self.snapshot_params = False
        #: Reusable reduce accumulator (see HopWorker.reduce_scratch).
        self.reduce_scratch = None

    @property
    def update_queue(self) -> UpdateQueue:
        return self.update_queues[self.wid]

    # ------------------------------------------------------------------
    # Membership plane (elastic runs; all no-ops when membership is None)
    # ------------------------------------------------------------------
    def expected_in(self, iteration: int) -> int:
        """In-updates expected at ``iteration`` (the serial Recv count).

        Statically ``|Nin|`` (self included); under the membership
        plane it counts live in-neighbors whose edge is activated for
        ``iteration``, so the receiver never blocks on updates that
        predate an edge (or postdate a departure).
        """
        if self.membership is None:
            return self.in_degree
        activation = self._in_activation
        expected = 1  # the self-loop update always arrives
        for j in self._remote_in:
            if activation.get(j, 0) <= iteration:
                expected += 1
        return expected

    def apply_membership(self, membership) -> None:
        """Re-resolve neighbor bindings from the live membership view."""
        topology = membership.view.topology
        wid = self.wid
        self.topology = topology
        self.in_neighbors = topology.in_neighbors(wid, include_self=True)
        self.out_neighbors = topology.out_neighbors(wid, include_self=True)
        self.in_degree = len(self.in_neighbors)
        self._remote_in = tuple(j for j in self.in_neighbors if j != wid)
        self._ack_sources = topology.out_neighbors(wid, include_self=False)
        self._ack_targets = topology.in_neighbors(wid, include_self=False)
        self._in_activation = {
            j: membership.edge_activation(j, wid) for j in self._remote_in
        }
        self._out_activation = {
            j: membership.edge_activation(wid, j) for j in self._ack_sources
        }

    def repair_pending_recv(self, departed) -> None:
        """Re-count a pending blocking receive after a membership rewire.

        A request created before the rewire may wait for a departed
        in-neighbor's update that will never arrive; its count is
        lowered to the repaired neighborhood's expectation (never
        raised — edges added by a rewire only activate at future
        iterations).
        """
        queue = self.update_queue
        waiters = getattr(queue, "_waiters", None)
        if not waiters:
            return
        for request in list(waiters):
            if request.sender is not None:
                if request.sender in departed:
                    waiters.remove(request)
                    request.succeed([])
                continue
            need = self.expected_in(request.iteration)
            if need < request.count:
                request.count = need
        queue._dispatch()

    def _live_resync_source(self) -> Optional["NotifyAckWorker"]:
        """A live in-neighbor to copy parameters from after a (re)join."""
        for j in self.in_neighbors:
            peer = self.peers.get(j)
            if (
                peer is not None
                and peer.wid != self.wid
                and not peer.crashed
                and not peer.down
                and not peer.departed
            ):
                return peer
        return None

    def _sync_from_neighbor(self, x: np.ndarray, k: int, resync: bool = True):
        """Generator: pull a live in-neighbor's parameters on (re)join.

        One blocking parameter-sized transfer; with no live source (or
        ``resync=False``) the worker resumes from its own state.
        """
        if resync:
            source = self._live_resync_source()
            if source is not None:
                yield self.network.transfer(
                    source.wid, self.wid, self.update_size
                )
                x = source.current_params.copy()
                self.tracer.log(f"resynced/{self.wid}", self.env.now, k)
        return x

    def _churn_leave(self, x: np.ndarray, k: int, event):
        """Generator: enact this worker's scripted departure at ``k``.

        Same drain / rewire / re-sync lifecycle as hop's: the
        membership runtime closes our ACK channels and repairs peers'
        pending waits; on rejoin we re-sync parameters from a live
        in-neighbor.  Permanent leaves return ``None``; a rejoin
        returns ``(params, start_iteration)``.
        """
        membership = self.membership
        self.down = True
        self.departed = True
        self.final_params = x
        membership.enact_leave(self.wid, self.env.now, k)
        if event.join_at is None:
            self.state.done[self.wid] = True
            return None
        started = yield membership.rejoin_event(self.wid)
        if started is None:
            self.state.done[self.wid] = True
            return None
        self.departed = False
        self.down = False
        x = yield from self._sync_from_neighbor(
            x, started, resync=event.resync
        )
        self.iterations_skipped += max(0, started - k)
        return x, started

    # ------------------------------------------------------------------
    # Protocol steps
    # ------------------------------------------------------------------
    def _send_update(self, params: np.ndarray, iteration: int) -> None:
        # One shared Update for the whole fan-out (receivers only read
        # it; queues track entries by identity).
        if self.compressor is None:
            update = Update(params.copy(), iteration, self.wid)
            self_update = update
        else:
            # Compressed path: neighbors get the error-feedback
            # reconstruction, the local queue keeps the true params,
            # and the push prices the compressed wire size.
            _, reconstruction = self.compressor.encode_state(params)
            update = Update(reconstruction, iteration, self.wid)
            self_update = Update(params.copy(), iteration, self.wid)
        # Self-delivery first: it schedules nothing (this worker is not
        # blocked on its own queue while it executes Send), so the
        # remote copies keep their relative event order.
        self.update_queue.enqueue(self_update)
        # An edge created by a rewire starts carrying updates at its
        # activation iteration, after the receiver's expectation for
        # earlier ones was fixed.
        dsts = self._activated(
            self._ack_sources, self._out_activation, iteration
        )
        self.network.fan_out(
            self.wid,
            dsts,
            self.wire_size,
            update,
            [self.update_queues[j].enqueue for j in dsts],
        )

    def _send_acks(self, iteration: int) -> None:
        """NOTIFY consumed -> ACK to every in-coming neighbor."""
        dsts = self._activated(
            self._ack_targets, self._in_activation, iteration
        )
        self.network.fan_out(
            self.wid,
            dsts,
            CONTROL_SIZE,
            1,
            [self.ack_queues[(self.wid, j)].put for j in dsts],
            control=True,
        )

    def _activated(self, neighbors, activation, iteration: int):
        """``neighbors`` whose edge carries traffic at ``iteration``."""
        if self.membership is None:
            return neighbors
        return [j for j in neighbors if activation.get(j, 0) <= iteration]

    def run(self):
        env = self.env
        wid = self.wid
        # Per-iteration tracer channels, bound once (see HopWorker).
        log_iter = self.tracer.channel(f"iter/{wid}")
        log_loss = self.tracer.channel(f"loss/{wid}")
        log_duration = self.tracer.channel(f"duration/{wid}")
        membership = self.membership
        elastic = membership is not None
        churn_event = self.churn_event if elastic else None
        x = self.model.get_params()
        k = 0
        if elastic and not membership.is_active(self.wid):
            # Late joiner: dark outside the cluster until the plan's
            # join trigger fires and the membership plane wires us in.
            started = yield membership.rejoin_event(self.wid)
            if started is None:
                self.final_params = x
                self.state.done[self.wid] = True
                return 0
            self.down = False
            x = yield from self._sync_from_neighbor(
                x,
                started,
                resync=churn_event.resync if churn_event is not None else True,
            )
            churn_event = None  # a late joiner has no leave scripted
            self.iterations_skipped += started
            k = started
        while k < self.max_iter:
            if elastic:
                if (
                    churn_event is not None
                    and churn_event.leave_at is not None
                    and k >= churn_event.leave_at
                ):
                    resumed = yield from self._churn_leave(x, k, churn_event)
                    churn_event = None
                    if resumed is None:
                        return self.iterations_completed
                    x, k = resumed
                    continue  # re-enter against the rejoin epoch
                membership.on_iteration(self.wid, k, env.now)
            start = env.now
            self.state.iterations[self.wid] = k
            self.gap_tracker.record(self.wid, k)
            log_iter(start, k)

            # Compute and Apply (serial graph, Figure 2a).
            self.model.set_params(x)
            ticket = self.compute.submit(self.model, self.batcher)
            yield env.timeout(self.compute_model.duration(self.wid, k))
            loss, grad = ticket.result()
            applied = x + self.optimizer.step(x, grad, k)

            # Wait for ACK(k-1) from all out-going neighbors before Send(k).
            ack_start = env.now
            ack_sources = self._activated(
                self._ack_sources, self._out_activation, k
            )
            if ack_sources:
                yield TokenGate(
                    env, [self.ack_queues[(j, wid)] for j in ack_sources]
                )
            self.ack_wait.add(env.now - ack_start)

            self._send_update(applied, k)

            # Recv + Reduce, then notify consumption with ACK(k).
            recv_start = env.now
            updates = yield self.update_queue.dequeue(
                self.expected_in(k), iteration=k
            )
            self.recv_wait.add(env.now - recv_start)
            # In-place accumulate into the reusable scratch; every read
            # of the previous ``x`` (model write, optimizer step, send
            # payload) happened before this point.
            self.reduce_scratch = x = mean_reduce(
                updates, out=self.reduce_scratch
            )
            self._send_acks(k)

            log_loss(env.now, loss)
            self.losses.add(loss)
            self.iterations_completed = k + 1
            # Joiners re-sync from a peer's end-of-iteration snapshot.
            self.current_params = x.copy() if self.snapshot_params else x
            duration = env.now - start
            self.iteration_durations.add(duration)
            log_duration(env.now, duration)
            k += 1

        self.final_params = x
        self.state.done[self.wid] = True
        self.tracer.log(f"finished/{self.wid}", self.env.now, self.max_iter)
        return self.iterations_completed

    def __repr__(self) -> str:
        return f"<NotifyAckWorker {self.wid} completed={self.iterations_completed}>"


def build_ack_queues(
    env: Environment, topology
) -> Dict[Tuple[int, int], TokenQueue]:
    """One ACK channel per directed edge, primed so Send(0) proceeds.

    ``ack_queues[(receiver, sender)]`` holds ACKs from ``receiver``
    gating ``sender``'s next Send; the initial token stands for the
    implicit ACK(-1).
    """
    queues: Dict[Tuple[int, int], TokenQueue] = {}
    for sender, receiver in topology.edges:
        if sender == receiver:
            continue
        queues[(receiver, sender)] = TokenQueue(
            env, owner=receiver, consumer=sender, initial=1
        )
    return queues
