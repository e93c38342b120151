"""The Hop worker process: Send / Compute / Recv / Reduce / Apply.

One :class:`HopWorker` runs per graph node as a simulation process.
The default computation graph is the paper's parallel variant
(Figure 2b): parameters are sent and gradients computed concurrently
with receiving neighbor updates; gradients are applied on top of the
reduced average.  The serial variant (Figure 2a) applies gradients
before sending.

The same loop runs NOTIFY-ACK [Kadav & Kruus 2016], the paper's foil
(Section 3.3): the serial graph plus a backward ACK edge, so that a
worker may not Send iteration ``k``'s update until every out-going
neighbor has ACKed consumption of iteration ``k-1``'s.  That solves the
mixed-version problem but over-restricts the iteration gap to

    Iter(i) - Iter(j) <= min(len(Path_{j->i}), 2 * len(Path_{i->j}))

which is what keeps backup workers and bounded staleness from helping,
the motivation for Hop's queue-based design.  An ACK channel is a
counted token queue primed with one token (the implicit ACK(-1)), so a
NOTIFY-ACK worker is a :class:`HopWorker` built with ``notify_ack=True``
and :data:`~repro.core.config.NOTIFY_ACK`, its ACK channels as
``token_queues``.

Gradients are numerically real; their *duration* comes from the compute
model, so heterogeneity is injected into time, not into math.  The loop
is control only and reaches the math through a plane
(:mod:`repro.core.planes`): in the loop on the worker's own model
replica, or recorded and replayed level by level after the simulation.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import HopConfig
from repro.core.gap import GapTracker
from repro.core.planes import EagerPlane, Record, RecordPlane
from repro.core.queues import TokenGate, TokenQueue
from repro.core.recv import RecvStrategy, StandardRecv, make_recv_strategy
from repro.core.skip import JumpDecision, SkipPolicy
from repro.core.update import Update
from repro.net.message import CONTROL_SIZE
from repro.net.network import Network
from repro.scenarios.faults import CrashEvent
from repro.scenarios.models import ComputeModel
from repro.sim.engine import Environment
from repro.sim.trace import SKIPPED, Ledger


class ClusterState:
    """Shared cluster-visible state (iteration counters, done flags).

    ``iterations`` is a plain list: it is read and written with scalar
    indices on the per-send hot path, where Python ints beat numpy
    scalar boxing.
    """

    def __init__(self, n_workers: int) -> None:
        self.iterations = [0] * n_workers
        self.done = np.zeros(n_workers, dtype=bool)

    def all_done(self) -> bool:
        return bool(self.done.all())


#: A static run's per-edge activations: none (shared, read-only).
_NO_ACTIVATION: Mapping[int, int] = MappingProxyType({})


class HopWorker:
    """One decentralized worker.

    Built by :class:`~repro.core.cluster.HopCluster`; the argument list
    mirrors the substrate pieces the protocol touches.  With a
    ``record`` the worker records its reduces instead of doing the
    arithmetic (:class:`~repro.core.planes.RecordPlane`), and its
    parameters and its ledger rows' losses exist once
    :func:`~repro.core.planes.replay` has run.  With ``notify_ack``
    the ``token_queues`` are ACK channels: ``token_queues[(receiver,
    sender)]`` holds ``receiver``'s ACKs gating ``sender``'s next Send,
    and time blocked at that gate is the ledger row's ``gate``, reported
    as ``ack_wait_mean``.  Every iteration ends with one ``ledger.record``
    of its times and loss, and the crash lifecycle goes to
    ``ledger.fault`` (:mod:`repro.sim.trace`).

    A fig24-scale cluster holds thousands of these, so the class has
    ``__slots__`` and a worker keeps no per-worker container it can
    share: its neighbour tuples are the topology's, a static run's edge
    activations are one shared empty mapping.
    """

    __slots__ = (
        "wid", "env", "topology", "cfg", "model", "optimizer", "batcher",
        "compute", "compute_model", "network", "update_queues",
        "token_queues", "state", "gap_tracker", "ledger",
        "max_iter", "update_size", "wire_size", "compressor", "token_rtt",
        "skip_policy", "notify_ack", "crash_event", "crashed", "down",
        "_crash_pending", "n_restarts", "peers", "membership",
        "churn_event", "departed", "recv", "in_neighbors", "out_neighbors",
        "in_degree", "_remote_in", "_in_activation", "_out_activation",
        "_token_consumers", "_token_providers", "_remote_out",
        "_remote_enqueues", "snapshot_params", "iterations_completed",
        "iterations_skipped", "n_jumps", "n_suppressed_sends",
        "n_extra_updates", "n_staleness_blocks", "n_cache_hits", "plane",
        "final_params", "current_params",
    )

    def __init__(
        self,
        wid: int,
        env: Environment,
        topology,
        config: HopConfig,
        model,
        optimizer,
        batcher,
        compute,
        compute_model: ComputeModel,
        network: Network,
        update_queues: Dict[int, object],
        token_queues: Dict[Tuple[int, int], TokenQueue],
        state: ClusterState,
        gap_tracker: GapTracker,
        ledger: Ledger,
        max_iter: int,
        update_size: float,
        token_rtt: float = 0.0,
        skip_policy: Optional[SkipPolicy] = None,
        crash_event: Optional[CrashEvent] = None,
        record: Optional[Record] = None,
        notify_ack: bool = False,
    ) -> None:
        self.wid = wid
        self.env = env
        self.topology = topology
        self.cfg = config
        self.model = model
        self.optimizer = optimizer
        self.batcher = batcher
        #: The run's :class:`~repro.ml.compute.ComputePool`.
        self.compute = compute
        self.compute_model = compute_model
        self.network = network
        self.update_queues = update_queues
        self.token_queues = token_queues
        self.state = state
        self.gap_tracker = gap_tracker
        self.ledger = ledger
        self.max_iter = max_iter
        self.update_size = update_size
        #: Wire size of one outgoing update (the compressed pricing);
        #: equals ``update_size`` on the dense path.  Set by the
        #: cluster when compression is configured.
        self.wire_size = update_size
        #: Per-worker error-feedback compressor (reference mode; see
        #: :mod:`repro.compression`).  ``None`` keeps the dense fast
        #: path untouched.  Set by the cluster.
        self.compressor = None
        self.token_rtt = token_rtt
        self.skip_policy = skip_policy
        self.notify_ack = notify_ack
        self.crash_event = crash_event
        self.crashed = False
        #: True while this worker is dark (crash-restart downtime, a
        #: membership departure, or a not-yet-joined late worker);
        #: peers must not re-sync from it while dark.
        self.down = False
        self._crash_pending = crash_event is not None
        self.n_restarts = 0
        #: Other workers by wid; set by the cluster after construction
        #: so a restarted worker can re-sync from a live in-neighbor.
        self.peers: Dict[int, "HopWorker"] = {}
        #: Membership plane (elastic runs only; set by the cluster).
        #: ``None`` keeps every static fast path untouched.
        self.membership = None
        #: This worker's scripted churn event, if any (set by cluster).
        self.churn_event = None
        #: True once this worker has left the membership (until rejoin).
        self.departed = False

        self.recv: RecvStrategy = make_recv_strategy(config)
        #: Per-edge activation iterations (membership plane; empty in
        #: static runs).
        self._in_activation = self._out_activation = _NO_ACTIVATION
        self._bind_neighbors(topology)
        #: When True, :attr:`current_params` is kept as an owned
        #: end-of-iteration snapshot (needed only when some peer may
        #: crash-restart and re-sync from us; set by the cluster).
        self.snapshot_params = False

        # Statistics
        self.iterations_completed = 0
        self.iterations_skipped = 0
        self.n_jumps = 0
        self.n_suppressed_sends = 0
        self.n_extra_updates = 0
        self.n_staleness_blocks = 0
        self.n_cache_hits = 0
        if record is None:
            self.plane = EagerPlane(self)
            self.final_params = model.get_params_copy()
            #: Latest parameter vector (snapshot other workers re-sync
            #: from).
            self.current_params = model.get_params_copy()
        else:
            # No value exists while the simulation runs: the replay
            # fills both, and the ledger's losses.
            self.plane = RecordPlane(record, wid)
            self.final_params = self.current_params = None

    # ------------------------------------------------------------------
    # Queue access
    # ------------------------------------------------------------------
    @property
    def update_queue(self):
        """This worker's local update queue."""
        return self.update_queues[self.wid]

    # ------------------------------------------------------------------
    # Membership plane (elastic runs; all no-ops when membership is None)
    # ------------------------------------------------------------------
    def expected_in(self, iteration: int) -> int:
        """In-updates expected at ``iteration`` (the advance-condition m).

        Statically this is ``|Nin|`` (self included).  Under the
        membership plane it counts live in-neighbors whose edge is
        activated for ``iteration``, so a receiver never blocks on
        updates that predate an edge (or postdate a departure).
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
        """Re-resolve neighbor bindings from the live membership view.

        Called by the membership runtime at every epoch transition; the
        run loop re-hoists its topology-derived locals at the next
        iteration top, while blocking state created *before* the
        transition is repaired via :meth:`repair_pending_recv`.
        """
        topology = membership.view.topology
        wid = self.wid
        self.topology = topology
        self._bind_neighbors(topology)
        self._in_activation = {
            j: membership.edge_activation(j, wid) for j in self._remote_in
        }
        self._out_activation = {
            j: membership.edge_activation(wid, j) for j in self._remote_out
        }

    def _bind_neighbors(self, topology) -> None:
        """Resolve the neighbour tuples and send plumbing on ``topology``."""
        wid = self.wid
        self.in_neighbors = topology.in_neighbors(wid, include_self=True)
        self.out_neighbors = topology.out_neighbors(wid, include_self=True)
        self.in_degree = len(self.in_neighbors)
        #: Remote in-neighbors, whose updates and tokens we wait for;
        #: also those we owe tokens to (paper: TokenQ(self -> j)).
        self._remote_in = self._token_consumers = topology.in_neighbors(
            wid, include_self=False
        )
        #: Remote out-neighbors; also those we take tokens from (paper:
        #: TokenQ(j -> self)).
        self._remote_out = self._token_providers = topology.out_neighbors(
            wid, include_self=False
        )
        # Per-neighbor send plumbing, prebuilt once: remote update
        # queues' bound enqueues (aligned with ``_remote_out``) double
        # as the delivery callbacks for the network (no per-message
        # closure, no Message wrapper).
        update_queues = self.update_queues
        self._remote_enqueues = tuple(
            update_queues[j].enqueue for j in self._remote_out
        )

    def detach_queues(self) -> None:
        """Let go of the queue fabric once the simulation is over: a
        replay reads the run's record, never a queue."""
        self.update_queues = self.token_queues = None
        self._remote_enqueues = ()

    def repair_pending_recv(self, departed) -> None:
        """Re-count pending blocking receives after a membership rewire.

        A request created before the rewire may wait for a departed
        in-neighbor's update that will never arrive; its count is
        lowered to the repaired neighborhood's advance condition (never
        raised — edges added by the rewire only activate at future
        iterations).  Per-sender staleness waits on a departed sender
        are released with an empty batch.
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
            need = self.recv.required(self, request.iteration)
            if need < request.count:
                request.count = need
        queue._dispatch()

    # ------------------------------------------------------------------
    # Protocol steps
    # ------------------------------------------------------------------
    def _send(self, params: np.ndarray, iteration: int) -> None:
        """Figure 4's Send: enqueue to every out-neighbor (self locally)."""
        wid = self.wid
        # One immutable Update shared by every destination queue:
        # receivers only read (params, iteration, sender) and queues
        # track entries by identity, so the fan-out needs a single
        # payload copy and a single tag object per Send.
        if self.compressor is None:
            update = Update(self.plane.payload(params), iteration, wid)
            self_update = update
        else:
            # Compressed path: neighbors receive the error-feedback
            # reconstruction (the reference both ends advance in
            # lockstep); this worker's own queue keeps the true dense
            # parameters.  The push below prices the compressed wire
            # size.
            _, reconstruction = self.compressor.encode_state(params)
            update = Update(reconstruction, iteration, wid)
            self_update = Update(params.copy(), iteration, wid)
        # Self-delivery is hoisted out of the neighbor loop.  It is
        # order-independent: enqueueing to our own queue schedules no
        # events (this worker cannot be blocked on its own queue while
        # it is the one executing Send), so remote sends keep their
        # exact relative event ordering.
        self.update_queue.enqueue(self_update)
        self._fan_out(update, iteration)

    def _fan_out(self, update: Update, iteration: int) -> None:
        """Hand ``update`` to the network for every remote out-neighbor."""
        dsts = self._remote_out
        delivers = self._remote_enqueues
        activation = self._out_activation  # empty in static runs
        check = self.cfg.check_receiver_iteration
        if activation or check:
            iterations = self.state.iterations
            live = []
            for index, j in enumerate(dsts):
                if activation.get(j, 0) > iteration:
                    # The edge starts carrying updates at a later
                    # iteration (it was created by a rewire after the
                    # receiver's expectations for this one were fixed).
                    continue
                if check and iterations[j] > iteration:
                    # Section 6.2(b): receiver already moved past this
                    # iteration; the update would be dropped as stale.
                    self.n_suppressed_sends += 1
                    continue
                live.append(index)
            dsts = [dsts[index] for index in live]
            delivers = [delivers[index] for index in live]
        self.network.fan_out(
            self.wid, dsts, self.wire_size, update, delivers
        )

    def _gate_queues(self) -> Tuple[List[TokenQueue], List[TokenQueue]]:
        """The token queues this worker fills for its in-neighbors and
        takes from its out-neighbors (none without the fabric).

        Built here, not in :meth:`run`: a comprehension in the
        generator's body would make ``self`` and ``wid`` cells that
        every worker's frame holds for the whole run.
        """
        if not self.cfg.use_token_queues:
            return [], []
        token_queues, wid = self.token_queues, self.wid
        return (
            [token_queues[(wid, j)] for j in self._token_consumers],
            [token_queues[(j, wid)] for j in self._token_providers],
        )

    def _plan_jump(self, iteration: int) -> Optional[JumpDecision]:
        if self.skip_policy is None or not self._token_providers:
            return None
        sizes = [
            self.token_queues[(j, self.wid)].size()
            for j in self._token_providers
        ]
        return self.skip_policy.decide(iteration, sizes, self.max_iter)

    def _execute_jump(self, params: np.ndarray, iteration: int, jump: JumpDecision):
        """Generator: refresh params and move tokens for a jump (Sec. 5)."""
        # Top up local token queues FIRST so in-neighbors blocked on our
        # tokens can advance toward the iteration our refresh waits for.
        for j in self._token_consumers:
            self.token_queues[(self.wid, j)].put(jump.advance - 1)

        # Renew parameters: Recv(target - 1) + Reduce, with our current
        # parameters participating through a locally injected update
        # (we never sent anything for the skipped iterations).
        refresh_iteration = jump.target - 1
        self.update_queue.enqueue(
            Update(self.plane.payload(params), refresh_iteration, self.wid)
        )
        refreshed = yield from self.recv.recv_reduce(self, refresh_iteration)

        self.n_jumps += 1
        self.iterations_skipped += jump.advance - 1
        return refreshed

    def _await_acks(self, iteration: int):
        """Generator: NOTIFY-ACK's gate, ACK(k-1) from every out-going
        neighbor before Send(k)."""
        providers = self._token_providers
        if self.membership is not None:
            # An edge created by a rewire carries ACKs from its
            # activation iteration on, like its updates.
            activation = self._out_activation
            providers = [
                j for j in providers if activation.get(j, 0) <= iteration
            ]
        if providers:
            yield TokenGate(
                self.env, [self.token_queues[(j, self.wid)] for j in providers]
            )

    def _send_acks(self, iteration: int) -> None:
        """NOTIFY-ACK: consumed -> ACK to every in-coming neighbor."""
        consumers = self._token_consumers
        if self.membership is not None:
            activation = self._in_activation
            consumers = [
                j for j in consumers if activation.get(j, 0) <= iteration
            ]
        self.network.fan_out(
            self.wid,
            consumers,
            CONTROL_SIZE,
            1,
            [self.token_queues[(self.wid, j)].put for j in consumers],
            control=True,
        )

    # ------------------------------------------------------------------
    # Departure lifecycle: crashes and membership churn share one path.
    # A crash-restart *is* the membership lifecycle's leave+join special
    # case — same worker, state carried over, no rewiring — so both
    # re-enter through the same drain / re-sync helpers.
    # ------------------------------------------------------------------
    def _live_resync_source(self) -> Optional["HopWorker"]:
        """A live in-neighbor to copy parameters from after a (re)join.

        Skips peers that are permanently crashed, departed from the
        membership, or currently dark in their own downtime — a dark
        machine cannot serve its parameters.
        """
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
        """Generator: the default lifecycle's "re-sync params from
        neighbors" step, shared by crash-restart and membership joins.

        Pulls a live in-neighbor's current parameters (one blocking
        parameter-sized transfer); with no live source (or
        ``resync=False``) the worker resumes from its own state.
        """
        if resync:
            source = self._live_resync_source()
            if source is not None:
                yield self.network.transfer(
                    source.wid, self.wid, self.update_size
                )
                x = source.current_params.copy()
                self.ledger.fault("resynced", self.wid, self.env.now, k)
        return x

    def _crash(self, x: np.ndarray, k: int):
        """Generator: enact this worker's crash event at iteration ``k``.

        Permanent: stop cold — no sends, no token inserts, no done flag;
        Theorem 2 bounds the blast radius.  Crash-restart: go dark for
        the downtime, then rejoin in place (same neighbors, no rewire)
        through the shared re-sync lifecycle — tokens and queue
        contents live in the fabric, not on the worker, so protocol
        invariants survive the outage untouched.

        Returns ``None`` for a permanent crash (caller must stop), or
        the parameter vector to resume with.
        """
        event = self.crash_event
        self.ledger.fault("crashed", self.wid, self.env.now, k)
        if event.permanent:
            self.crashed = True
            self.final_params = x
            return None
        self.down = True
        downtime = float(event.downtime_iters) * float(
            self.compute_model.base_times[self.wid]
        )
        if downtime > 0:
            yield self.env.timeout(downtime)
        self.down = False
        x = yield from self._sync_from_neighbor(x, k, resync=event.resync)
        self.n_restarts += 1
        self.ledger.fault("restarted", self.wid, self.env.now, k)
        return x

    def _churn_leave(self, x: np.ndarray, k: int, event):
        """Generator: enact this worker's scripted departure at ``k``.

        The default lifecycle: *drain* (stop participating; the
        membership runtime repairs peers' pending waits), *rewire* (the
        plan's policy repairs the graph and re-derives weights), and on
        rejoin *re-sync params from neighbors*.  Permanent leaves
        return ``None``; a rejoin returns ``(params, start_iteration)``.
        """
        membership = self.membership
        self.down = True
        self.departed = True
        self.final_params = x
        membership.enact_leave(self.wid, self.env.now, k)
        if event.join_at is None:
            # Permanent leave: unlike a crash, departure is *clean* —
            # the worker leaves the membership, so its absence strands
            # nobody and it counts as finished.
            self.state.done[self.wid] = True
            return None
        started = yield membership.rejoin_event(self.wid)
        if started is None:
            # The rejoin fell past the run horizon.
            self.state.done[self.wid] = True
            return None
        self.departed = False
        self.down = False
        x = yield from self._sync_from_neighbor(x, started, resync=event.resync)
        self.iterations_skipped += max(0, started - k)
        return x, started

    def _late_join(self, x: np.ndarray, event):
        """Generator: a late joiner waits dark outside the cluster.

        Blocks until the plan's join trigger fires and the membership
        plane wires this worker in, then re-syncs.  Returns
        ``(params, start_iteration)``, or ``None`` when the join falls
        past the run horizon (the worker then counts as finished).
        """
        started = yield self.membership.rejoin_event(self.wid)
        if started is None:
            self.final_params = x
            self.state.done[self.wid] = True
            return None
        self.down = False
        x = yield from self._sync_from_neighbor(
            x, started, resync=event.resync if event is not None else True
        )
        self.iterations_skipped += started  # pre-join iterations
        return x, started

    def _finish(self, x: np.ndarray) -> int:
        """Record the final parameters and mark this worker done."""
        self.final_params = x
        self.state.done[self.wid] = True
        return self.iterations_completed

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self):
        """The worker process (Figures 4, 7, 8, 9 + Section 5).

        Control only: every value goes through ``self.plane``, whose
        results the loop passes along without reading.  On the eager
        plane ``x`` aliases this worker's reduce scratch from the first
        iteration on, so every read of ``x`` (send payload copy, model
        write, optimizer step) happens *before* the next reduce
        overwrites the scratch in place.  The optimizer step is taken
        before the receive for exactly that reason — it depends only on
        ``(x, grad, k)``, so the move is value-identical.  NOTIFY-ACK
        adds two steps to the serial graph: the ACK gate before Send
        and the ACK fan-out after Recv.
        """
        # Hot-loop locals: the body runs once per iteration per worker
        # and every attribute chain below would otherwise be re-resolved
        # each time.  All hoisted objects are stable for the lifetime of
        # the process.
        env = self.env
        timeout = env.timeout
        wid = self.wid
        max_iter = self.max_iter
        membership = self.membership
        elastic = membership is not None
        churn_event = self.churn_event if elastic else None
        send = self._send
        notify_ack = self.notify_ack
        parallel = self.cfg.computation_graph == "parallel"
        use_tokens = self.cfg.use_token_queues
        consumer_queues, provider_queues = self._gate_queues()
        iterations = self.state.iterations
        gap_record = self.gap_tracker.record
        duration_of = self.compute_model.duration
        # The math, through the plane: a gradient's inputs are fixed
        # before the compute timeout and its value is used after it.
        plane = self.plane
        compute, step, apply = plane.compute, plane.step, plane.apply
        reduce_mean = plane.mean
        recv_reduce = self.recv.recv_reduce
        # Standard mode inlines its one-dequeue receive below, skipping
        # the per-iteration strategy-generator indirection (behavior is
        # identical to StandardRecv.recv_reduce).  Elastic runs take
        # the strategy path so the advance condition tracks membership.
        standard = type(self.recv) is StandardRecv and not elastic
        dequeue = self.update_queue.dequeue
        in_degree = self.in_degree
        record = self.ledger.record

        x = plane.initial()
        k = 0
        local_epoch = membership.epoch if elastic else 0
        if elastic and not membership.is_active(wid):
            joined = yield from self._late_join(x, churn_event)
            if joined is None:
                return 0
            x, k = joined
            churn_event = None  # a late joiner has no leave scripted
        while k < max_iter:
            if elastic:
                if membership.epoch != local_epoch:
                    # Epoch boundary: re-hoist the topology-derived
                    # locals (apply_membership already rebound the
                    # attributes they derive from).
                    local_epoch = membership.epoch
                    in_degree = self.in_degree
                    consumer_queues, provider_queues = self._gate_queues()
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
                    continue  # rebind against the rejoin epoch
                membership.on_iteration(wid, k, env.now)
            if self._crash_pending and k >= self.crash_event.at_iteration:
                self._crash_pending = False
                x = yield from self._crash(x, k)
                if x is None:
                    return self.iterations_completed
            start = env.now
            iterations[wid] = k
            gap_record(wid, k)

            # Insert tokens for in-coming neighbors (Figure 7 line 10).
            if use_tokens:
                for queue in consumer_queues:
                    queue.put(1)

            gate = jumped = SKIPPED
            if parallel:
                # Figure 2(b): Send, then Compute overlapping Recv.
                send(x, k)
                ticket = compute(x)
                yield timeout(duration_of(wid, k))
                computed = env.now
                delta = step(ticket, x, k)
            else:
                # Figure 2(a): Compute, Apply, then Send / Recv / Reduce.
                ticket = compute(x)
                yield timeout(duration_of(wid, k))
                computed = env.now
                delta = step(ticket, x, k)
                if notify_ack:
                    acks = env.now
                    yield from self._await_acks(k)
                    gate = (acks, env.now)
                send(plane.applied(x, delta), k)
            recv_start = env.now
            if standard:
                updates = yield dequeue(in_degree, iteration=k)
                reduced = reduce_mean(updates, k)
            else:
                reduced = yield from recv_reduce(self, k)
            recv_end = env.now
            if notify_ack:
                self._send_acks(k)
            x = apply(reduced, delta) if parallel else reduced

            self.iterations_completed = k + 1
            # ``x`` aliases the scratch; peers re-syncing after a
            # crash-restart need a stable end-of-iteration snapshot.
            self.current_params = x.copy() if self.snapshot_params else x

            # Advance: acquire tokens, possibly jumping (Section 5).
            next_k = k + 1
            if use_tokens and next_k < max_iter:
                advance = 1
                jump = self._plan_jump(k)
                if jump is not None:
                    jump_start = env.now
                    x = yield from self._execute_jump(x, k, jump)
                    jumped = (jump_start, env.now)
                    next_k = jump.target
                    advance = jump.advance
                token_start = env.now
                if provider_queues:
                    yield TokenGate(
                        env, provider_queues, advance, self.token_rtt
                    )
                elif self.token_rtt > 0:
                    yield timeout(self.token_rtt)
                gate = (token_start, env.now)

            record(
                wid, k, start, env.now, plane.loss, (start, computed),
                (recv_start, recv_end), gate, SKIPPED, jumped,
            )
            k = next_k

        return self._finish(x)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.wid} "
            f"completed={self.iterations_completed} mode={self.cfg.mode}>"
        )
