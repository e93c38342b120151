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

    #: A round's losses belong to its start, when the gradients' inputs
    #: were fixed.
    loss_at = "start"

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
            compression=compression,
            churn=churn,
        )
        self.link = link or Link()

    def communication_time(self, update_size: float) -> float:
        """2(n-1) chunk steps of size M/n each (bandwidth-optimal)."""
        chunk = update_size / self.n_workers
        return 2 * (self.n_workers - 1) * self.link.transfer_time(chunk)

    # ------------------------------------------------------------------
    # ProtocolCluster hooks
    # ------------------------------------------------------------------
    def _start(self, runtime: ProtocolRuntime) -> None:
        """One lockstep ring per round.  Under churn the ring is
        rebuilt from the membership view at every round boundary."""
        env = runtime.env
        n = self.n_workers
        plan = self.churn
        membership = None
        if plan is not None:
            from repro.graphs.builders import ring

            # Lockstep: leave/join iterations are global round numbers,
            # so the driver enacts joins itself instead of frontier
            # triggers.
            membership = self._membership_runtime(
                runtime, ring(n), auto_join_triggers=False
            )
        batchers = [self._make_batcher(wid) for wid in range(n)]
        self._params: List[np.ndarray] = [runtime.models[0].get_params()]
        optimizer = self.optimizer_proto.clone()
        # Compressed rings move sparse/quantized chunks: the ring's
        # chunked schedule is priced at the wire size (dense runs see
        # the identical float — payload_bytes(x) * 1.0 is exact).
        wire_size = self._wire_size(runtime)
        compressors = [
            self._stream_compressor(runtime, wid, stream="grad")
            for wid in range(n)
        ]
        submit = runtime.compute.submit

        def driver(env):
            params = self._params
            members = list(range(n))
            stamp = runtime.ledger.order
            for k in range(self.max_iter):
                start = env.now
                if membership is None:
                    # Lockstep: every member enters the round at one
                    # stamp, so all move before any gap is observed.
                    orders = [next(stamp)] * n
                else:
                    # Round boundary: excise departed members, splice
                    # in joiners, both recorded against round k.  The
                    # rewire policy bridges the membership view's ring;
                    # the compute/communication ring below is re-derived
                    # deterministically from the resulting live set.
                    for wid in range(n):
                        if membership.is_active(wid) and not plan.active_at(
                            wid, k
                        ):
                            membership.enact_leave(wid, env.now, k)
                    for wid in range(n):
                        if not membership.is_active(
                            wid
                        ) and plan.active_at(wid, k):
                            membership.enact_join(wid, env.now, start=k)
                    members = sorted(membership.view.active)
                    # Known defect: one stamp per member registers a
                    # transient gap of 1 that a lockstep ring never has
                    # (one shared stamp would not).  Pinned by the churn
                    # golden cells until they are re-recorded.
                    orders = [next(stamp) for _ in members]
                steps, chunk = chunk_schedule(members, wire_size)
                comm_time = steps * self.link.transfer_time(chunk)
                tickets = []
                for wid in members:
                    runtime.models[wid].set_params(params[0])
                    tickets.append(
                        submit(runtime.models[wid], batchers[wid])
                    )
                # Lockstep: the slowest live member gates the ring.
                durations = [self.compute_model.duration(w, k) for w in members]
                slowest = max(durations)
                yield env.timeout(slowest + comm_time)
                grads, losses = [], []
                for wid, ticket in zip(members, tickets):
                    loss, grad = ticket.result()
                    if compressors[wid] is not None:
                        # Error-feedback sparsification: the ring
                        # reduces each worker's reconstruction; the
                        # residual folds back into the next round.
                        _, grad = compressors[wid].compress(grad)
                    grads.append(grad)
                    losses.append(loss)
                # Each chunk step moves one chunk over every live ring
                # edge; the edge count comes from the rebuilt ring.  (A
                # static ring reports its closed form instead.)
                edges = len(rebuild_ring(members))
                runtime.count_traffic(steps * edges, steps * chunk * edges)
                mean_grad = np.mean(grads, axis=0)
                params[0] = params[0] + optimizer.step(params[0], mean_grad)
                # Each member computes, waits for the slowest, reduces.
                ring_start = start + slowest
                for wid, duration, loss, order in zip(
                    members, durations, losses, orders
                ):
                    computed = start + duration
                    runtime.ledger.record(
                        wid, k, start, env.now, loss, (start, computed),
                        (ring_start, env.now), (computed, ring_start),
                        order=order,
                    )
            runtime.done[:] = True

        env.process(driver(env), name="allreduce-driver")

    def _final_param_stack(self, runtime: ProtocolRuntime) -> np.ndarray:
        return self._params[0][None, :]

    def _config_description(self) -> str:
        return "ring all-reduce (synchronous, chunked)"

    def _topology_name(self) -> str:
        return f"ring({self.n_workers})"

    def _message_totals(self, runtime: ProtocolRuntime) -> Tuple[int, float]:
        if self._membership is not None:
            # Rings shrink and regrow under churn: the per-round counts
            # the driver accumulated are authoritative.
            return super()._message_totals(runtime)
        # A static ring keeps its closed form: summing the rounds'
        # ``steps * (M/n) * n`` rounds differently (n = 14 moves an ulp).
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
