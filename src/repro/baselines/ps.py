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

A static run whose every step has a stacked form does control only
while it simulates: its plane writes a :class:`~repro.core.planes.Record`
(a fold is a combine of the gradients it applies, chained to the fold
before it; a gradient reads the fold that made the version it
pulled), and :func:`~repro.core.planes.replay` evaluates it after
``env.run()`` through :class:`_ServerEmitter`, the arithmetic of one
level (docs/ARCHITECTURE.md, "Replay").

Registered as protocols ``"ps-bsp"`` (alias ``"ps"``), ``"ps-async"``
and ``"ps-ssp"``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.planes import Record, RecordPlane, replay
from repro.core.planes import replayable
from repro.membership import MembershipRuntime
from repro.ml.data import Horizons
from repro.net.network import SharedNic
from repro.protocols.base import ProtocolCluster, ProtocolRuntime
from repro.protocols.registry import register_protocol, spec_common_kwargs
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.trace import SKIPPED

#: The PS NIC's bandwidth (the hotspot's throughput) and per-transfer
#: latency.
PS_BANDWIDTH, PS_LATENCY = 125.0, 1e-4


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
        #: BSP gradients awaiting quorum, as ``(wid, grad)`` (``grad``
        #: is a gid when recording; shared with the server loop so
        #: membership changes can scrub it).
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
        if not self._min_advanced:
            # No SSP waiter is parked: a minimum advance wakes nobody.
            self.worker_iterations[wid] = iteration
            return
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


class _EagerMath:
    """The PS arithmetic in the loop: each pull sets the worker's model
    to the server's parameters and submits a compute ticket, and each
    fold steps the server's one optimizer."""

    __slots__ = ("compute", "optimizer")

    def __init__(self, runtime: ProtocolRuntime, optimizer) -> None:
        self.compute = runtime.compute
        self.optimizer = optimizer

    def pull(self, server: "_ServerState", wid: int, k: int, model, batcher):
        """After the pull: fix the gradient's inputs (returns the ticket)."""
        model.set_params(server.params)
        return self.compute.submit(model, batcher)

    @staticmethod
    def gradient(ticket):
        """After the compute timeout: ``(loss, grad)``."""
        return ticket.result()

    def fold(self, params: np.ndarray, grad, k: int) -> np.ndarray:
        """async / ssp: one gradient, stepped at its pulled version."""
        return params + self.optimizer.step(params, grad, k)

    def fold_mean(self, params: np.ndarray, grads: list, k: int) -> np.ndarray:
        """BSP: the quorum's mean, in ``pending`` order."""
        mean_grad = np.mean(grads, axis=0)
        return params + self.optimizer.step(params, mean_grad, k)


class _ServerEmitter:
    """The PS's arithmetic of one replay level.  Fold ``v`` moves the
    server from version ``v`` to ``v + 1`` with its one ``optimizer``,
    stepped at ``v`` for BSP (``mean``: the quorum's mean) and at the
    gradient's pulled version for async and ssp.  Gid ``wid * max_iter
    + k`` is worker ``wid``'s gradient on its batch ``k``, drawn from a
    :class:`~repro.ml.data.Horizons`, at the version it pulled; every
    gradient that reads a version is on that version's level, so a
    level's versions are dropped once its gradients are evaluated.
    After :func:`~repro.core.planes.replay`, :attr:`params` is the
    server's final vector and :attr:`losses` each worker's losses by
    iteration.
    """

    def __init__(
        self, record: Record, batchers, pool, optimizer, params, mean: bool
    ) -> None:
        self.max_iter = record.max_iter
        self.pool, self.optimizer, self.mean = pool, optimizer, mean
        self.horizons = Horizons(batchers, self.max_iter)
        offsets, inputs = record.columns()
        #: The server version each gradient pulled.
        self.versions = np.frombuffer(record.reads, dtype=np.intc) + 1
        self.folded = np.zeros(self.versions.size, dtype=bool)
        self.folded[inputs] = True
        # The fold loop is one optimizer step per gradient: it reads
        # Python lists, not numpy scalars.
        self.bounds, self.fold_gids = offsets.tolist(), inputs.tolist()
        #: The iteration each fold steps at: its own version for BSP,
        #: its one gradient's pulled version for async and ssp.
        steps = np.arange(offsets.size - 1) if mean else self.versions[inputs]
        self.steps = steps.tolist()
        self.params = params
        self.held: Dict[int, np.ndarray] = {0: params}
        self.grads_of: Dict[int, np.ndarray] = {}
        self.losses = np.empty((len(batchers), self.max_iter))

    def combine(self, folds: np.ndarray) -> None:
        """The level's folds, in the order the server applied them."""
        bounds, fold_gids, steps = self.bounds, self.fold_gids, self.steps
        grads_of, held, params = self.grads_of, self.held, self.params
        step, mean = self.optimizer.step, self.mean
        for fold in folds.tolist():
            ids = fold_gids[bounds[fold] : bounds[fold + 1]]
            quorum = [grads_of.pop(i) for i in ids]
            grad = np.mean(quorum, axis=0) if mean else quorum[0]
            params = held[fold + 1] = params + step(params, grad, steps[fold])
        self.params = params

    def evaluate(self, gids: np.ndarray) -> None:
        """The level's gradients as one block, each at the version it
        pulled."""
        pulled, row_of = np.unique(self.versions[gids], return_inverse=True)
        x = np.stack([self.held[v] for v in pulled.tolist()])[row_of]
        self.held.clear()
        wids, ks = np.divmod(gids, self.max_iter)
        losses, grads = self.pool.evaluate_rows(wids, ks, x, self.horizons)
        self.losses[wids, ks] = losses
        gid_list = gids.tolist()
        for row in np.flatnonzero(self.folded[gids]).tolist():
            self.grads_of[gid_list[row]] = grads[row]


class _ShardedMembership(MembershipRuntime):
    """A membership runtime whose transitions drive the shard fabric
    (:meth:`ParameterServerCluster._membership_changed`)."""

    def __init__(self, *args, cluster: "ParameterServerCluster", **kwargs):
        super().__init__(*args, **kwargs)
        self.cluster = cluster

    def enact_leave(self, worker, now, iteration):
        super().enact_leave(worker, now, iteration)
        self.cluster._membership_changed(
            self, worker, now, iteration, departed=True
        )

    def enact_join(self, worker, now, start=None):
        was_active = self.is_active(worker)
        super().enact_join(worker, now, start)
        if not was_active and self.is_active(worker):
            self.cluster._membership_changed(
                self,
                worker,
                now,
                self.iterations.get(worker, 0),
                departed=False,
            )


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
        compute_model=None,
        batch_size: int = 32,
        max_iter: int = 100,
        seed: int = 0,
        update_size: Optional[float] = None,
        evaluate: bool = True,
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
            compression=compression,
            churn=churn,
        )
        self.mode = mode
        self.protocol = f"ps-{mode}"
        self.n_backup = n_backup
        self.staleness = staleness
        self.topology = topology
        self._shards: Optional[ParamShards] = None

    # ------------------------------------------------------------------
    def _ps_round(
        self,
        wid: int,
        runtime: ProtocolRuntime,
        server: _ServerState,
        nic: SharedNic,
        model,
        batcher,
        grads_inbox,
        notify: List[Event],
        k: int,
    ):
        """Generator: worker ``wid``'s iteration ``k``, one pull ->
        compute -> push."""
        env = runtime.env
        start = env.now
        gate = SKIPPED
        server.record_worker_iteration(wid, k)
        runtime.gap.record(wid, k)

        # SSP: block while we are too far ahead of the slowest worker.
        if self.mode == "ssp":
            while k > server.min_iteration() + self.staleness:
                yield server.wait_min_advance()
            gate = (start, env.now)

        # Pull parameters through the PS NIC (download).
        pull = env.now
        yield from nic.transfer(runtime.update_size)
        if self._membership is not None:
            runtime.count_traffic(1, runtime.update_size)
        pulled_version = server.version

        # Compute.
        pulled = env.now
        plane = self._plane
        ticket = plane.pull(server, wid, k, model, batcher)
        yield env.timeout(self.compute_model.duration(wid, k))
        computed = env.now
        loss, grad = plane.gradient(ticket)

        # Compression shrinks the *push* only: the pull stays a dense
        # parameter download (the PS cannot error-feed per worker).
        compressor = self._stream_compressor(runtime, wid, stream="grad")
        if compressor is not None:
            _, grad = compressor.compress(grad)

        # Push the gradient through the PS NIC (upload).
        if self._membership is None:
            push_size = self._push_size
            if push_size is None:
                push_size = self._push_size = self._wire_size(runtime)
            yield from nic.transfer(push_size)
            grads_inbox.append((wid, pulled_version, grad))
            if not notify[0].triggered:
                notify[0].succeed()
        else:
            yield from self._push_sharded(
                wid, runtime, server, nic, grads_inbox, notify,
                pulled_version, grad,
            )

        pushed = env.now
        if self.mode == "bsp":
            # Wait for the PS to fold this iteration and move on.
            yield server.version_event(pulled_version)
            gate = (pushed, env.now)

        runtime.ledger.record(
            wid, k, start, env.now, loss, (pulled, computed), (pull, pulled),
            gate, (computed, pushed),
        )

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

    def _retire(self, runtime: ProtocolRuntime, wid: int) -> None:
        super()._retire(runtime, wid)
        # Retiring shrinks the BSP quorum: poke the server so a barrier
        # the pending gradients now fill folds without an arrival.
        notify = self._notify
        if self._server_state.pending and not notify[0].triggered:
            notify[0].succeed()

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
        runtime = self.runtime
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
        plane = self._plane
        membership = self._membership
        # The BSP quorum lives on the server state so membership
        # transitions can scrub a departed worker's contribution.
        pending = server.pending

        def try_fold() -> None:
            # Once fast workers retire (or members depart), the quorum
            # shrinks to the remaining active workers (else stragglers
            # would wait forever for gradients nobody will send).
            if membership is None:
                active = self.n_workers - int(np.count_nonzero(runtime.done))
            else:
                active = sum(
                    1
                    for w in range(self.n_workers)
                    if not runtime.done[w] and membership.is_active(w)
                )
            need = max(1, min(self.n_workers - self.n_backup, active))
            if pending and len(pending) >= need:
                server.params = plane.fold_mean(
                    server.params, [g for _, g in pending], server.version
                )
                server.gradients_applied += len(pending)
                pending[:] = []
                server.advance_version()

        # The inbox first: a non-empty one answers without reducing
        # ``done``, and the reduction is the ufunc ``ndarray.all`` wraps.
        every = np.logical_and.reduce
        while grads_inbox or not every(runtime.done):
            if self.mode == "bsp":
                # A retirement or a leave may have shrunk the quorum
                # below the pending count without any new arrival;
                # re-check on every poke so the barrier folds instead
                # of deadlocking.
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
                server.params = plane.fold(server.params, grad, version)
                server.gradients_applied += 1
                server.advance_version()

    # ------------------------------------------------------------------
    # ProtocolCluster hooks
    # ------------------------------------------------------------------
    def _replays(self, model) -> bool:
        return replayable(self, model)

    def _start(self, runtime: ProtocolRuntime) -> None:
        env = runtime.env
        nic = SharedNic(env, bandwidth=PS_BANDWIDTH, latency=PS_LATENCY)
        self._nic = nic
        server = _ServerState(env, runtime.model.get_params(), self.n_workers)
        self._server_state = server
        grads_inbox: list = []
        notify: List[Event] = [Event(env)]
        #: A push's wire size, priced once, at the run's first push.
        self._push_size: Optional[float] = None
        self._notify = notify
        # The record/eager split: control is one loop either way.
        if runtime.replays:
            self.record = Record(self.n_workers, self.max_iter, chained=True)
            self._plane = RecordPlane(self.record)
        else:
            self.record = None
            self._plane = _EagerMath(runtime, self.optimizer_proto)
        self._batchers = [
            self._make_batcher(wid) for wid in range(self.n_workers)
        ]

        if self.churn is not None:
            from repro.graphs.builders import ring

            # The real PS fabric is the shard map; the nominal overlay
            # only anchors the membership view's rewire reporting.
            membership = self._membership_runtime(
                runtime,
                self.topology or ring(self.n_workers),
                _ShardedMembership,
                cluster=self,
            )
            self._shards = ParamShards(
                int(server.params.size), membership.view.active
            )
            self._grads_inbox = grads_inbox
            server.membership = membership

        # Each worker process is its rounds under the churn plan, if
        # any; a (re)joiner seeds its state from the live shards.
        resync = partial(self._seed_from_shards, runtime, nic)
        for wid in range(self.n_workers):
            round_at = partial(
                self._ps_round,
                wid,
                runtime,
                server,
                nic,
                None if runtime.replays else runtime.models[wid],
                self._batchers[wid],
                grads_inbox,
                notify,
            )
            env.process(
                self._member_loop(runtime, wid, round_at, resync),
                name=f"ps-worker-{wid}",
            )
        env.process(
            self._server(runtime, server, grads_inbox, notify),
            name="ps-server",
        )

    def _after_simulation(self, runtime: ProtocolRuntime) -> None:
        if self.record is not None:
            server = self._server_state
            emitter = _ServerEmitter(
                self.record,
                self._batchers,
                runtime.compute,
                self.optimizer_proto,
                server.params,
                self.mode == "bsp",
            )
            replay(self.record, emitter)
            server.params = emitter.params
            runtime.ledger.fill_losses(emitter.losses)

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
