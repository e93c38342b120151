"""Ring All-Reduce training: the decentralized-but-synchronous baseline.

Bandwidth-optimal chunked ring all-reduce [Patarasuk & Yuan 2009]: each
iteration every worker computes a gradient, then the ring performs
``2(n-1)`` chunk steps (scatter-reduce + all-gather), each moving
``M/n`` data per link.  All workers stay in lockstep, so one straggler
stalls the whole ring — the inflexibility the paper contrasts Hop
against (Section 2.3: backup workers are impossible here).

Registered as protocol ``"allreduce"``.  The Prague-style *partial*
all-reduce (:mod:`repro.protocols.partial_allreduce`) relaxes exactly
this global barrier into independent, randomized groups.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.net.links import Link
from repro.protocols.base import ProtocolCluster, ProtocolRuntime
from repro.protocols.registry import register_protocol, spec_common_kwargs


def rebuild_ring(members: Iterable[int]) -> Tuple[Tuple[int, int], ...]:
    """The deterministic ring over a live member set.

    Members are ordered ascending and wrapped: departed workers are
    excised, joiners splice in at their id's position, and every
    participant derives the identical ring without coordination.
    Returns the directed edge list; fewer than two members yield no
    ring at all.
    """
    order = sorted(members)
    if len(order) < 2:
        return ()
    return tuple(
        (order[i], order[(i + 1) % len(order)]) for i in range(len(order))
    )


def chunk_schedule(members: Iterable[int], update_size: float) -> Tuple[int, float]:
    """``(chunk_steps, chunk_size)`` for a ring over ``members``.

    Bandwidth-optimal chunking re-derived from the live ring size
    ``g``: ``2(g - 1)`` steps (scatter-reduce + all-gather) moving
    ``M/g`` per link each.
    """
    g = len(tuple(members))
    if g < 2:
        return 0, 0.0
    return 2 * (g - 1), update_size / g


class RingAllReduceCluster(ProtocolCluster):
    """Synchronous ring all-reduce training.

    Args:
        n_workers: Ring size.
        model_factory: Same convention as
            :class:`~repro.protocols.base.ProtocolCluster`.
        dataset: Training/test data.
        optimizer: One logical optimizer (all replicas are identical).
        link: Per-hop link model for the ring.
        compute_model: Worker compute-time oracle.
        churn: Optional membership churn plan.  The ring is
            round-synchronous, so leave/join iterations are global
            round numbers: at each round boundary the driver enacts the
            plan's transitions, rebuilds the ring from the membership
            view (:func:`rebuild_ring`) and re-derives the chunk
            schedule (:func:`chunk_schedule`) over the live set.  A
            joiner needs no separate state transfer — the all-gather
            phase of its first round hands it the fully reduced
            parameter vector.
    """

    protocol = "allreduce"
    elastic = True

    def __init__(
        self,
        n_workers: int,
        model_factory,
        dataset,
        optimizer=None,
        link: Optional[Link] = None,
        compute_model=None,
        batch_size: int = 32,
        max_iter: int = 100,
        seed: int = 0,
        update_size: Optional[float] = None,
        evaluate: bool = True,
        trace_channels=None,
        churn=None,
        compression=None,
    ) -> None:
        if n_workers < 2:
            raise ValueError("ring all-reduce needs >= 2 workers")
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
        self.link = link or Link()
        if churn is not None and churn.empty:
            churn = None
        if churn is not None:
            churn = churn.clipped(max_iter)
            churn.validate_for(n_workers)
            if churn.empty:
                churn = None
        self.churn = churn
        self._membership = None

    def communication_time(self, update_size: float) -> float:
        """2(n-1) chunk steps of size M/n each (bandwidth-optimal)."""
        chunk = update_size / self.n_workers
        return 2 * (self.n_workers - 1) * self.link.transfer_time(chunk)

    # ------------------------------------------------------------------
    # ProtocolCluster hooks
    # ------------------------------------------------------------------
    def _start(self, runtime: ProtocolRuntime) -> None:
        if self.churn is not None:
            return self._start_elastic(runtime)
        env = runtime.env
        n = self.n_workers
        batchers = [self._make_batcher(wid) for wid in range(n)]
        self._params: List[np.ndarray] = [runtime.models[0].get_params()]
        # Compressed rings move sparse/quantized chunks: the ring's
        # chunked schedule is priced at the wire size (dense runs see
        # the identical float — payload_bytes(x) * 1.0 is exact).
        comm_time = self.communication_time(self._wire_size(runtime))
        optimizer = self.optimizer_proto
        compressors = [
            self._stream_compressor(runtime, wid, stream="grad")
            for wid in range(n)
        ]

        submit = runtime.compute.submit

        def driver(env):
            params = self._params
            for k in range(self.max_iter):
                start = env.now
                runtime.gap.record_many(k)
                tickets = []
                for wid in range(n):
                    runtime.models[wid].set_params(params[0])
                    tickets.append(
                        submit(runtime.models[wid], batchers[wid])
                    )
                # Lockstep: the slowest worker gates the ring.
                slowest = max(
                    self.compute_model.duration(wid, k) for wid in range(n)
                )
                yield env.timeout(slowest + comm_time)
                grads = []
                for wid, ticket in enumerate(tickets):
                    loss, grad = ticket.result()
                    if compressors[wid] is not None:
                        # Error-feedback sparsification: the ring
                        # reduces each worker's reconstruction; the
                        # residual folds back into the next round.
                        _, grad = compressors[wid].compress(grad)
                    grads.append(grad)
                    # The loss belongs to the round's start, when the
                    # gradient's inputs were fixed.
                    runtime.log_loss[wid](start, loss)
                mean_grad = np.mean(grads, axis=0)
                params[0] = params[0] + optimizer.step(params[0], mean_grad, k)
                for wid in range(n):
                    runtime.log_duration[wid](env.now, env.now - start)
            runtime.done[:] = True

        env.process(driver(env), name="allreduce-driver")

    def _start_elastic(self, runtime: ProtocolRuntime) -> None:
        """The churn-aware driver: one lockstep ring per round, rebuilt
        from the membership view at every round boundary."""
        from repro.graphs.builders import ring
        from repro.membership import MembershipRuntime, MembershipView

        env = runtime.env
        n = self.n_workers
        plan = self.churn
        batchers = [self._make_batcher(wid) for wid in range(n)]
        self._params = [runtime.models[0].get_params()]
        self._completed = [0] * n
        optimizer = self.optimizer_proto
        view = MembershipView.founding(
            ring(n), absent=plan.initially_absent(), policy=plan.policy
        )
        # Lockstep: leave/join iterations are global round numbers, so
        # the driver enacts joins itself instead of frontier triggers.
        membership = self._membership = MembershipRuntime(
            env,
            view,
            plan,
            self.max_iter,
            gap=runtime.gap,
            auto_join_triggers=False,
        )

        wire_size = self._wire_size(runtime)
        compressors = [
            self._stream_compressor(runtime, wid, stream="grad")
            for wid in range(n)
        ]
        submit = runtime.compute.submit

        def driver(env):
            params = self._params
            for k in range(self.max_iter):
                start = env.now
                # Round boundary: excise departed members, splice in
                # joiners, both recorded against round k.  The rewire
                # policy bridges the membership view's ring; the
                # compute/communication ring below is re-derived
                # deterministically from the resulting live set.
                for wid in range(n):
                    if membership.is_active(wid) and not plan.active_at(
                        wid, k
                    ):
                        membership.enact_leave(wid, env.now, k)
                for wid in range(n):
                    if not membership.is_active(wid) and plan.active_at(
                        wid, k
                    ):
                        membership.enact_join(wid, env.now, start=k)
                members = sorted(membership.view.active)
                steps, chunk = chunk_schedule(members, wire_size)
                comm_time = steps * self.link.transfer_time(chunk)
                tickets = []
                for wid in members:
                    runtime.gap.record(wid, k)
                    runtime.models[wid].set_params(params[0])
                    tickets.append(
                        submit(runtime.models[wid], batchers[wid])
                    )
                # Lockstep: the slowest live member gates the ring.
                slowest = max(
                    self.compute_model.duration(wid, k) for wid in members
                )
                yield env.timeout(slowest + comm_time)
                grads = []
                for wid, ticket in zip(members, tickets):
                    loss, grad = ticket.result()
                    if compressors[wid] is not None:
                        _, grad = compressors[wid].compress(grad)
                    grads.append(grad)
                    runtime.log_loss[wid](start, loss)
                # Each chunk step moves one chunk over every live ring
                # edge; the edge count comes from the rebuilt ring.
                edges = len(rebuild_ring(members))
                runtime.count_traffic(steps * edges, steps * chunk * edges)
                mean_grad = np.mean(grads, axis=0)
                params[0] = params[0] + optimizer.step(params[0], mean_grad, k)
                for wid in members:
                    self._completed[wid] = k + 1
                    runtime.log_duration[wid](env.now, env.now - start)
            runtime.done[:] = True

        env.process(driver(env), name="allreduce-driver")

    def _final_param_stack(self, runtime: ProtocolRuntime) -> np.ndarray:
        return self._params[0][None, :]

    def _config_description(self) -> str:
        return "ring all-reduce (synchronous, chunked)"

    def _topology_name(self) -> str:
        return f"ring({self.n_workers})"

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
            # Rings shrink and regrow under churn: the per-round counts
            # accumulated by the elastic driver are authoritative.
            return super()._message_totals(runtime)
        n, chunks = self.n_workers, 2 * (self.n_workers - 1)
        return (
            chunks * n * self.max_iter,
            chunks * self._wire_size(runtime) * self.max_iter,
        )


def _build_allreduce(spec) -> RingAllReduceCluster:
    # The ring prices every chunk step through one Link; honor the
    # spec's network override so bandwidth-constrained ablations
    # (fig26) see compression in the simulated clock, not just bytes.
    # (Scenario link flaps stay analytic-free here: the lockstep ring
    # has no per-message fabric for them to act on.)
    return RingAllReduceCluster(
        n_workers=spec.topology.n,
        link=spec.links.default if spec.links is not None else None,
        churn=getattr(spec.built_scenario(), "churn", None),
        **spec_common_kwargs(spec),
    )


register_protocol(
    "allreduce",
    _build_allreduce,
    summary="Synchronous chunked ring all-reduce (global lockstep "
    "barrier)",
    paper="Patarasuk & Yuan — JPDC 2009",
    # Round-synchronous elasticity: the driver rebuilds the ring from
    # the membership view at every round boundary and re-derives the
    # chunk schedule over the live set.
    elastic=True,
)
