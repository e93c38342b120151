"""Parameter-server training: the centralized baseline (Figure 13).

Three coordination modes on one PS implementation:

* ``"bsp"`` — Bulk Synchronous Parallel: the PS waits for gradients
  from ``n - n_backup`` workers per iteration (``n_backup = 0`` is
  plain BSP; > 0 is Chen et al.'s backup workers); stale gradients are
  dropped.
* ``"async"`` — Hogwild-style: every arriving gradient is applied
  immediately; workers never wait for each other.
* ``"ssp"`` — Stale Synchronous Parallel: async plus a global staleness
  bound between the fastest and slowest worker.

The communication hotspot is modeled by a single
:class:`~repro.net.network.SharedNic` at the PS: all pulls and pushes
serialize through it, so PS traffic scales with the worker count while
each decentralized worker's traffic scales with its degree — the shape
behind the paper's Figure 13.

Under membership churn the server state is *sharded* HetPipe-style
(wave-synchronous PS under whimpy heterogeneous members, Park et al.,
arXiv:2005.14038): the flat parameter vector splits once into one
contiguous shard per founding member (:class:`ParamShards`), and every
leave/join deterministically fails the departed owners' shards over to
the live set.  Stale contributions from departed workers are released
(never folded, never counted toward a quorum), in-flight pushes
addressed to a shard owner that departed mid-transfer are dropped and
counted in ``messages_dropped`` — then re-addressed against the new
shard map, so the BSP barrier can never wait on a contribution the
failover already lost — and a joiner seeds its state from the live
shards before its first pull.

Registered as protocols ``"ps-bsp"`` (alias ``"ps"``), ``"ps-async"``
and ``"ps-ssp"``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.net.network import SharedNic
from repro.protocols.base import ProtocolCluster, ProtocolRuntime
from repro.protocols.registry import register_protocol, spec_common_kwargs
from repro.sim.engine import Environment
from repro.sim.events import Event


class ParamShards:
    """HetPipe-style shard map over the flat parameter vector.

    The vector is split exactly once, at founding, into one contiguous
    slice per founding member.  Shard *boundaries* never move — only
    ownership does — so re-sharding is pure reassignment (shard ``i``
    goes to ``sorted(live)[i % len(live)]``) and concatenating the
    slices reconstructs the flat vector bit-for-bit no matter how many
    failovers happened in between (property-tested).
    """

    def __init__(self, dim: int, owners: Iterable[int]) -> None:
        order = sorted(owners)
        if not order:
            raise ValueError("need at least one shard owner")
        n = len(order)
        base, extra = divmod(int(dim), n)
        bounds = []
        lo = 0
        for i in range(n):
            hi = lo + base + (1 if i < extra else 0)
            bounds.append((lo, hi))
            lo = hi
        self.dim = int(dim)
        self.bounds: Tuple[Tuple[int, int], ...] = tuple(bounds)
        self.owner_of: Dict[int, int] = {
            shard: order[shard] for shard in range(n)
        }

    @property
    def n_shards(self) -> int:
        return len(self.bounds)

    def owner(self, shard: int) -> int:
        return self.owner_of[shard]

    def owners(self) -> Tuple[int, ...]:
        """Current owner per shard (the push address list)."""
        return tuple(self.owner_of[s] for s in range(self.n_shards))

    def shard_fraction(self, shard: int) -> float:
        """This shard's share of the full vector (for byte accounting)."""
        lo, hi = self.bounds[shard]
        return (hi - lo) / self.dim if self.dim else 0.0

    def reassign(
        self, live: Iterable[int]
    ) -> Tuple[Tuple[int, int, int], ...]:
        """Deterministically re-derive ownership over the live set.

        Returns the failovers as ``(shard, old_owner, new_owner)``
        tuples; shards whose owner survived stay put.
        """
        order = sorted(live)
        if not order:
            raise ValueError("cannot re-shard over an empty live set")
        moved = []
        for shard in range(self.n_shards):
            new = order[shard % len(order)]
            old = self.owner_of[shard]
            if new != old:
                self.owner_of[shard] = new
                moved.append((shard, old, new))
        return tuple(moved)

    def split(self, params: np.ndarray) -> List[np.ndarray]:
        """The vector's shard slices (views, in shard order)."""
        return [params[lo:hi] for lo, hi in self.bounds]

    def flat(self, slices: List[np.ndarray]) -> np.ndarray:
        """Reassemble the flat vector from its shard slices."""
        return np.concatenate(slices)


class _ServerState:
    """Shared PS state: parameters, version, synchronization events."""

    def __init__(self, env: Environment, params: np.ndarray, n_workers: int):
        self.env = env
        self.params = params.copy()
        self.version = 0
        self.n_workers = n_workers
        self.worker_iterations = np.zeros(n_workers, dtype=int)
        self._version_events: Dict[int, Event] = {}
        self._min_advanced: List[Event] = []
        self.gradients_applied = 0
        self.gradients_dropped = 0
        #: BSP gradients awaiting quorum, as ``(wid, grad)`` (shared
        #: with the server loop so membership changes can scrub it).
        self.pending: List[Tuple[int, np.ndarray]] = []
        #: Set by the cluster under churn: min_iteration then ranges
        #: over *live* members only, so a departed straggler can never
        #: freeze the SSP staleness bound.
        self.membership = None

    def version_event(self, version: int) -> Event:
        """Event that fires when the PS moves past ``version``."""
        if self.version > version:
            done = Event(self.env)
            done.succeed()
            return done
        if version not in self._version_events:
            self._version_events[version] = Event(self.env)
        return self._version_events[version]

    def advance_version(self) -> None:
        self.version += 1
        event = self._version_events.pop(self.version - 1, None)
        if event is not None and not event.triggered:
            event.succeed()

    def min_iteration(self) -> int:
        if self.membership is None:
            return int(self.worker_iterations.min())
        live = [
            int(self.worker_iterations[w])
            for w in range(self.n_workers)
            if self.membership.is_active(w)
        ]
        return min(live) if live else 0

    def record_worker_iteration(self, wid: int, iteration: int) -> None:
        old_min = self.min_iteration()
        self.worker_iterations[wid] = iteration
        if self.min_iteration() > old_min:
            self.release_waiters()

    def release_waiters(self) -> None:
        """Fire every min-advance waiter so it re-checks its bound.

        Called on iteration-min advance, and by the membership hook on
        every leave/join — a departure can move the effective minimum
        without any worker reporting an iteration.
        """
        waiters, self._min_advanced = self._min_advanced, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    def wait_min_advance(self) -> Event:
        event = Event(self.env)
        self._min_advanced.append(event)
        return event


def _make_ps_membership(env, view, plan, max_iter, gap, cluster):
    """A membership runtime whose transitions drive the shard fabric.

    Defined lazily (class creation inside the factory) so importing
    this module never pulls in :mod:`repro.membership` for static runs.
    """
    from repro.membership import MembershipRuntime

    class _PSMembership(MembershipRuntime):
        def enact_leave(self, worker, now, iteration):
            super().enact_leave(worker, now, iteration)
            cluster._membership_changed(
                self, worker, now, iteration, departed=True
            )

        def enact_join(self, worker, now, start=None):
            was_active = self.is_active(worker)
            super().enact_join(worker, now, start)
            if not was_active and self.is_active(worker):
                cluster._membership_changed(
                    self,
                    worker,
                    now,
                    self.iterations.get(worker, 0),
                    departed=False,
                )

    return _PSMembership(env, view, plan, max_iter, gap=gap)


class ParameterServerCluster(ProtocolCluster):
    """Centralized training deployment.

    Args:
        n_workers: Worker count.
        mode: ``"bsp"``, ``"async"``, or ``"ssp"``.
        model_factory: Same convention as
            :class:`~repro.protocols.base.ProtocolCluster`.
        dataset: Training/test data.
        optimizer: Applied at the PS to aggregated gradients.
        n_backup: BSP backup workers (gradients needed = n - n_backup).
        staleness: Global staleness bound for SSP.
        ps_bandwidth: The PS NIC bandwidth (the hotspot's throughput).
        ps_latency: Per-transfer latency at the PS NIC.
        compute_model: Worker compute-time oracle.
        max_iter: Iterations per worker.
        churn: Optional membership churn plan; enables the sharded
            HetPipe-style failover fabric (see the module docstring).
        topology: Nominal overlay for membership rewire reporting under
            churn (the real PS fabric is the shard map); defaults to a
            ring over the workers.
    """

    def __init__(
        self,
        n_workers: int,
        model_factory,
        dataset,
        mode: str = "bsp",
        optimizer=None,
        n_backup: int = 0,
        staleness: int = 0,
        ps_bandwidth: float = 125.0,
        ps_latency: float = 1e-4,
        compute_model=None,
        batch_size: int = 32,
        max_iter: int = 100,
        seed: int = 0,
        update_size: Optional[float] = None,
        evaluate: bool = True,
        trace_channels=None,
        churn=None,
        topology=None,
        compression=None,
    ) -> None:
        if mode not in ("bsp", "async", "ssp"):
            raise ValueError(f"unknown PS mode {mode!r}")
        if n_backup < 0 or n_backup >= n_workers:
            raise ValueError("n_backup must be in [0, n_workers)")
        if mode == "ssp" and staleness < 1:
            raise ValueError("ssp needs staleness >= 1")
        super().__init__(
            n_workers=n_workers,
            model_factory=model_factory,
            dataset=dataset,
            optimizer=optimizer,
            batch_size=batch_size,
            compute_model=compute_model,
            max_iter=max_iter,
            seed=seed,
            update_size=update_size,
            evaluate=evaluate,
            trace_channels=trace_channels,
            compression=compression,
        )
        self.mode = mode
        self.protocol = f"ps-{mode}"
        self.n_backup = n_backup
        self.staleness = staleness
        self.ps_bandwidth = ps_bandwidth
        self.ps_latency = ps_latency
        self.topology = topology
        if churn is not None and churn.empty:
            churn = None
        if churn is not None:
            churn = churn.clipped(max_iter)
            churn.validate_for(n_workers)
            if churn.empty:
                churn = None
        self.churn = churn
        self._membership = None
        self._shards: Optional[ParamShards] = None

    # ------------------------------------------------------------------
    def _ps_round(
        self,
        wid: int,
        k: int,
        runtime: ProtocolRuntime,
        server: _ServerState,
        nic: SharedNic,
        model,
        batcher,
        grads_inbox,
        notify: List[Event],
    ):
        """Generator: one pull -> compute -> push iteration (shared by
        the static and elastic worker loops, so the two can't drift)."""
        env = runtime.env
        start = env.now
        server.record_worker_iteration(wid, k)
        runtime.gap.record(wid, k)

        # SSP: block while we are too far ahead of the slowest worker.
        if self.mode == "ssp":
            while k > server.min_iteration() + self.staleness:
                yield server.wait_min_advance()

        # Pull parameters through the PS NIC (download).
        yield from nic.transfer(runtime.update_size)
        if self._membership is not None:
            runtime.count_traffic(1, runtime.update_size)
        pulled_version = server.version
        x = server.params.copy()

        # Compute.
        model.set_params(x)
        ticket = runtime.compute.submit(model, batcher)
        yield env.timeout(self.compute_model.duration(wid, k))
        loss, grad = ticket.result()

        # Compression shrinks the *push* only: the pull stays a dense
        # parameter download (the PS cannot error-feed per worker).
        compressor = self._stream_compressor(runtime, wid, stream="grad")
        if compressor is not None:
            _, grad = compressor.compress(grad)

        # Push the gradient through the PS NIC (upload).
        if self._membership is None:
            yield from nic.transfer(self._wire_size(runtime))
            grads_inbox.append((wid, pulled_version, grad))
            if not notify[0].triggered:
                notify[0].succeed()
        else:
            yield from self._push_sharded(
                wid, runtime, server, nic, grads_inbox, notify,
                pulled_version, grad,
            )

        if self.mode == "bsp":
            # Wait for the PS to fold this iteration and move on.
            yield server.version_event(pulled_version)

        runtime.log_loss[wid](env.now, loss)
        runtime.log_duration[wid](env.now, env.now - start)

    def _push_sharded(
        self,
        wid: int,
        runtime: ProtocolRuntime,
        server: _ServerState,
        nic: SharedNic,
        grads_inbox,
        notify: List[Event],
        pulled_version: int,
        grad,
    ):
        """Elastic push: the gradient is addressed shard-by-shard to
        the owners recorded at send time.

        Fragments whose addressed owner departed while the transfer was
        in flight are dropped at delivery and counted in
        ``messages_dropped`` (the Network epoch-routing contract); the
        worker then re-addresses the push against the post-failover
        shard map and retries, so the BSP barrier can never wait on a
        contribution the failover already lost.
        """
        membership = self._membership
        wire_size = self._wire_size(runtime)
        while True:
            addressed = self._shards.owners()
            yield from nic.transfer(wire_size)
            runtime.count_traffic(1, wire_size)
            lost = [
                owner
                for owner in addressed
                if not membership.is_active(owner)
            ]
            if not lost:
                break
            membership.messages_dropped += len(lost)
        grads_inbox.append((wid, pulled_version, grad))
        if not notify[0].triggered:
            notify[0].succeed()

    def _seed_from_shards(self, runtime: ProtocolRuntime, nic: SharedNic):
        """Joiner state: pull the full vector, shard by shard, from the
        live owners through the PS NIC before the first iteration."""
        yield from nic.transfer(runtime.update_size)
        runtime.count_traffic(self._shards.n_shards, runtime.update_size)

    def _worker(
        self,
        wid: int,
        runtime: ProtocolRuntime,
        server: _ServerState,
        nic: SharedNic,
        model,
        batcher,
        grads_inbox,
        notify: List[Event],
    ):
        """One PS worker process: pull -> compute -> push."""
        if self._membership is not None:
            return (
                yield from self._worker_elastic(
                    wid,
                    runtime,
                    server,
                    nic,
                    model,
                    batcher,
                    grads_inbox,
                    notify,
                )
            )
        for k in range(self.max_iter):
            yield from self._ps_round(
                wid, k, runtime, server, nic, model, batcher, grads_inbox,
                notify,
            )
        runtime.done[wid] = True

    def _worker_elastic(
        self,
        wid: int,
        runtime: ProtocolRuntime,
        server: _ServerState,
        nic: SharedNic,
        model,
        batcher,
        grads_inbox,
        notify: List[Event],
    ):
        """The PS worker loop under membership churn: same rounds, plus
        the leave/rejoin lifecycle with shard-seeded joiner state."""
        env = runtime.env
        membership = self._membership
        leave = membership.leave_event(wid)
        k = 0
        if not membership.is_active(wid):
            started = yield membership.rejoin_event(wid)
            if started is None:
                runtime.done[wid] = True
                return
            yield from self._seed_from_shards(runtime, nic)
            k = started
        while k < self.max_iter:
            if (
                leave is not None
                and k >= leave.leave_at
                and membership.is_active(wid)
            ):
                membership.enact_leave(wid, env.now, k)
                if leave.join_at is None:
                    runtime.done[wid] = True
                    return
                started = yield membership.rejoin_event(wid)
                if started is None:
                    runtime.done[wid] = True
                    return
                yield from self._seed_from_shards(runtime, nic)
                leave = None  # the cycle is spent
                k = started
                continue
            membership.on_iteration(wid, k, env.now)
            yield from self._ps_round(
                wid, k, runtime, server, nic, model, batcher, grads_inbox,
                notify,
            )
            self._completed[wid] = k + 1
            k += 1
        runtime.done[wid] = True

    def _membership_changed(
        self, membership, worker: int, now, iteration: int, departed: bool
    ) -> None:
        """The shard fabric's reaction to one enacted transition.

        HetPipe wave-sync failover: shards owned by departed members
        re-derive their owner over the live set (charged as one state
        transfer per moved shard); stale contributions from departed
        workers are released from the inbox and the BSP quorum; SSP
        min-advance waiters re-check their bound; and the server is
        poked so a quorum the departure just shrank below the pending
        count folds immediately instead of deadlocking the barrier.
        """
        runtime = self._elastic_runtime
        server = self._server_state
        moved = self._shards.reassign(membership.view.active)
        if moved:
            bytes_moved = sum(
                self._shards.shard_fraction(shard) * runtime.update_size
                for shard, _, _ in moved
            )
            runtime.count_traffic(len(moved), bytes_moved)
            membership.events.append(
                {
                    "kind": "reshard",
                    "worker": int(worker),
                    "time": float(now),
                    "iteration": int(iteration),
                    "epoch": int(membership.view.epoch),
                    "shards_moved": len(moved),
                    "bytes_moved": float(bytes_moved),
                }
            )
        if departed:
            # Release the departed worker's stale contributions: they
            # must neither be folded into the model nor counted toward
            # any quorum (HetPipe releases a whimpy member's wave).
            inbox = self._grads_inbox
            before = len(inbox)
            inbox[:] = [entry for entry in inbox if entry[0] != worker]
            pending = server.pending
            before += len(pending)
            pending[:] = [entry for entry in pending if entry[0] != worker]
            released = before - len(inbox) - len(pending)
            server.gradients_dropped += released
        else:
            # The joiner resumes at its start iteration; record it
            # before its first report so the SSP minimum never dips to
            # its stale pre-leave counter.
            server.worker_iterations[worker] = iteration
        server.release_waiters()
        notify = self._notify
        if not notify[0].triggered:
            notify[0].succeed()

    def _server(
        self,
        runtime: ProtocolRuntime,
        server: _ServerState,
        grads_inbox: list,
        notify: List[Event],
    ):
        """The PS process: aggregate gradients and update parameters."""
        env = runtime.env
        optimizer = self.optimizer_proto
        membership = self._membership
        # The BSP quorum lives on the server state so membership
        # transitions can scrub a departed worker's contribution.
        pending = server.pending

        def try_fold() -> None:
            # Once fast workers retire (or members depart), the quorum
            # shrinks to the remaining active workers (else stragglers
            # would wait forever for gradients nobody will send).
            if membership is None:
                active = int((~runtime.done).sum())
            else:
                active = sum(
                    1
                    for w in range(self.n_workers)
                    if not runtime.done[w] and membership.is_active(w)
                )
            need = max(1, min(self.n_workers - self.n_backup, active))
            if pending and len(pending) >= need:
                mean_grad = np.mean([g for _, g in pending], axis=0)
                delta = optimizer.step(
                    server.params, mean_grad, server.version
                )
                server.params = server.params + delta
                server.gradients_applied += len(pending)
                pending[:] = []
                server.advance_version()

        while not runtime.done.all() or grads_inbox:
            if membership is not None and self.mode == "bsp":
                # A leave may have shrunk the quorum below the pending
                # count without any new arrival; re-check on every poke
                # so the barrier folds instead of deadlocking.
                try_fold()
            if not grads_inbox:
                notify[0] = Event(env)
                yield notify[0]
                continue
            wid, version, grad = grads_inbox.pop(0)
            if self.mode == "bsp":
                if version != server.version:
                    server.gradients_dropped += 1
                    continue
                pending.append((wid, grad))
                try_fold()
            else:
                # async / ssp: apply immediately.
                delta = optimizer.step(server.params, grad, version)
                server.params = server.params + delta
                server.gradients_applied += 1
                server.advance_version()

    # ------------------------------------------------------------------
    # ProtocolCluster hooks
    # ------------------------------------------------------------------
    def _start(self, runtime: ProtocolRuntime) -> None:
        env = runtime.env
        nic = SharedNic(
            env, bandwidth=self.ps_bandwidth, latency=self.ps_latency
        )
        self._nic = nic
        server = _ServerState(
            env, runtime.models[0].get_params(), self.n_workers
        )
        self._server_state = server
        grads_inbox: list = []
        notify: List[Event] = [Event(env)]

        if self.churn is not None:
            from repro.graphs.builders import ring
            from repro.membership import MembershipView

            plan = self.churn
            # The real PS fabric is the shard map; the nominal overlay
            # only anchors the membership view's rewire reporting.
            nominal = self.topology or ring(self.n_workers)
            view = MembershipView.founding(
                nominal,
                absent=plan.initially_absent(),
                policy=plan.policy,
            )
            self._completed = [0] * self.n_workers
            self._shards = ParamShards(int(server.params.size), view.active)
            self._elastic_runtime = runtime
            self._grads_inbox = grads_inbox
            self._notify = notify
            self._membership = _make_ps_membership(
                env, view, plan, self.max_iter, runtime.gap, self
            )
            server.membership = self._membership

        for wid in range(self.n_workers):
            env.process(
                self._worker(
                    wid,
                    runtime,
                    server,
                    nic,
                    runtime.models[wid],
                    self._make_batcher(wid),
                    grads_inbox,
                    notify,
                ),
                name=f"ps-worker-{wid}",
            )
        env.process(
            self._server(runtime, server, grads_inbox, notify),
            name="ps-server",
        )

    def _final_param_stack(self, runtime: ProtocolRuntime) -> np.ndarray:
        return self._server_state.params[None, :]

    def _config_description(self) -> str:
        mode_desc = self.mode
        if self.mode == "bsp" and self.n_backup:
            mode_desc += f"+backup({self.n_backup})"
        if self.mode == "ssp":
            mode_desc += f"(s={self.staleness})"
        return f"parameter server, {mode_desc}"

    def _topology_name(self) -> str:
        return f"star({self.n_workers}+PS)"

    def _iterations_completed(self, runtime: ProtocolRuntime) -> List[int]:
        if self._membership is not None:
            return list(self._completed)
        return super()._iterations_completed(runtime)

    def _messages_dropped(self, runtime: ProtocolRuntime) -> int:
        if self._membership is not None:
            return self._membership.messages_dropped
        return 0

    def _message_totals(self, runtime: ProtocolRuntime) -> Tuple[int, float]:
        if self._membership is not None:
            # Retransmits, seeds and shard failovers make the analytic
            # count wrong under churn; the accumulated runtime traffic
            # is authoritative.
            return super()._message_totals(runtime)
        transfers = self.n_workers * self.max_iter
        # Dense pulls + (possibly compressed) pushes.  Uncompressed
        # this is bitwise the old 2*transfers*update_size: u + u == 2u
        # and doubling commutes with the rounding of each product.
        return 2 * transfers, (
            transfers * runtime.update_size
            + transfers * self._wire_size(runtime)
        )


def _builder(mode: str):
    def _build(spec) -> ParameterServerCluster:
        return ParameterServerCluster(
            n_workers=spec.topology.n,
            mode=mode,
            n_backup=spec.ps_backup,
            staleness=spec.ps_staleness,
            churn=getattr(spec.built_scenario(), "churn", None),
            topology=spec.topology,
            **spec_common_kwargs(spec),
        )

    return _build


# The PS protocols share HetPipe-style elasticity (Park et al.,
# arXiv:2005.14038): the parameter vector is sharded per founding
# member, leaves fail shards over to the live set and release stale
# contributions, joiners seed their state from the live shards.
register_protocol(
    "ps-bsp",
    _builder("bsp"),
    summary="Parameter server, bulk-synchronous (optional backup "
    "workers) behind a shared-NIC hotspot",
    paper="Li et al. — OSDI 2014; Chen et al. — arXiv:1604.00981",
    aliases=("ps",),
    elastic=True,
)
register_protocol(
    "ps-async",
    _builder("async"),
    summary="Parameter server, fully asynchronous (Hogwild-style)",
    paper="Dean et al. — NeurIPS 2012",
    elastic=True,
)
register_protocol(
    "ps-ssp",
    _builder("ssp"),
    summary="Parameter server, stale-synchronous (global staleness "
    "bound)",
    paper="Ho et al. — NeurIPS 2013",
    elastic=True,
)
