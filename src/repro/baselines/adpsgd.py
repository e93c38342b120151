"""AD-PSGD [Lian et al. 2018]: asynchronous decentralized gossip SGD.

Each worker repeatedly computes a gradient and *atomically averages*
its parameters with one randomly selected neighbor, then applies the
gradient.  Unconstrained, two concurrent averagings can deadlock on
each other's parameter locks; the published fix — which Hop's Section 5
criticizes as restrictive — partitions workers into *active* (initiate
gossip) and *passive* (serve gossip) sets, which requires the
communication graph to be bipartite.

We implement exactly that active/passive bipartite scheme: passive
workers' parameters are guarded by locks; active workers grab the lock,
pay a parameter round trip, and write back the average.

:class:`ADPSGDCluster` is registered as protocol ``"adpsgd"``; the
momentum-tracking protocol (:mod:`repro.protocols.momentum_tracking`)
reuses its gossip pattern.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.topology import Topology
from repro.ml.data import Batcher
from repro.ml.optim import SGD
from repro.net.links import LinkModel, uniform_links
from repro.net.message import payload_bytes
from repro.protocols.base import ProtocolCluster, ProtocolRuntime
from repro.protocols.registry import register_protocol, spec_common_kwargs
from repro.sim.resources import Resource


class ADPSGDCluster(ProtocolCluster):
    """Asynchronous decentralized parallel SGD on a bipartite graph.

    Args:
        topology: Must be bipartite (checked); the two color classes
            become the active and passive sets.
        model_factory / dataset / optimizer: Same conventions as
            :class:`~repro.protocols.base.ProtocolCluster`.
        links: Network timing for the gossip round trips.
        compute_model: Worker compute-time oracle.
    """

    protocol = "adpsgd"
    elastic = True

    def __init__(
        self,
        topology: Topology,
        model_factory,
        dataset,
        optimizer: Optional[SGD] = None,
        links: Optional[LinkModel] = None,
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
        topology.validate()
        self.active_set, self.passive_set = topology.bipartite_sets()
        super().__init__(
            n_workers=topology.n,
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
        self.topology = topology
        self.links = links or uniform_links()
        if churn is not None and churn.empty:
            churn = None
        if churn is not None:
            churn = churn.clipped(max_iter)
            churn.validate_for(topology.n)
            if churn.empty:
                churn = None
        self.churn = churn
        self._membership = None

    # ------------------------------------------------------------------
    # Gossip machinery (shared with MomentumTrackingCluster)
    # ------------------------------------------------------------------
    def _passive_partners(self, wid: int) -> Tuple[bool, List[int]]:
        """``(is_active, eligible passive neighbors)`` for ``wid``."""
        is_active = wid in self.active_set
        neighbors = [
            j
            for j in self.topology.out_neighbors(wid, include_self=False)
            if (j in self.passive_set) == is_active or not is_active
        ]
        return is_active, [j for j in neighbors if j in self.passive_set]

    def _gossip_vectors(self) -> float:
        """Distinct vectors shipped per gossip direction (subclasses
        may enlarge: momentum-tracking rides its buffer along)."""
        return 1.0

    def gossip_payload(self, update_size: float) -> float:
        """Dense bytes sent per gossip direction (shared pricing path)."""
        return payload_bytes(update_size, vectors=self._gossip_vectors())

    def _gossip_wire(self, runtime: ProtocolRuntime) -> float:
        """Wire bytes per gossip direction (compression-aware)."""
        return self._wire_size(runtime, vectors=self._gossip_vectors())

    def _average_state(
        self, wid: int, partner: int, params: Dict[int, np.ndarray]
    ) -> None:
        """Write back the pairwise average (the atomic-averaging step).

        Compressed gossip is CHOCO-style: each side encodes the delta
        of its parameters against its tracked reference, the peer folds
        the *reconstruction* into the average, and the residual error
        stays local.  Both encodes read the pre-average vectors, so the
        exchange is symmetric and order-independent.
        """
        compressors = getattr(self, "_gossip_compressors", None)
        if compressors is None or compressors[wid] is None:
            average = 0.5 * (params[wid] + params[partner])
            params[wid] = average.copy()
            params[partner] = average.copy()
            return
        _, recon_wid = compressors[wid].encode_state(params[wid])
        _, recon_partner = compressors[partner].encode_state(params[partner])
        params[wid] = 0.5 * (params[wid] + recon_partner)
        params[partner] = 0.5 * (recon_wid + params[partner])

    def _gossip(
        self,
        runtime: ProtocolRuntime,
        wid: int,
        partner: int,
        params: Dict[int, np.ndarray],
        locks: Dict[int, Resource],
        gossip_count: List[int],
    ):
        """Lock ``partner``, pay the round trip, average, release."""
        request = locks[partner].request()
        yield request
        try:
            yield runtime.env.timeout(
                self.links.round_trip(
                    wid, partner, self._gossip_wire(runtime)
                )
            )
            if (
                self._membership is not None
                and not self._membership.is_active(partner)
            ):
                # The partner departed while we waited for its lock /
                # the round trip: abort — a departed worker's frozen
                # parameters must not keep mixing in, nor be mutated.
                return
            self._average_state(wid, partner, params)
            gossip_count[0] += 1
        finally:
            locks[partner].release(request)

    def _elastic_partners(self, wid: int) -> Tuple[bool, List[int]]:
        """Gossip partners re-resolved against the live membership view.

        The repaired graph may not stay bipartite (bridging an even
        ring creates odd cycles), but gossip safety only needs the
        active/passive *coloring*, which is fixed at founding: partners
        are the live out-neighbors of the opposite color, and edges the
        repair created inside one color class simply carry no gossip.
        """
        topology = self._membership.view.topology
        passive = [
            j
            for j in topology.out_neighbors(wid, include_self=False)
            if j in self.passive_set and topology.is_active(j)
        ]
        return wid in self.active_set, passive

    # ------------------------------------------------------------------
    # Gossip worker process
    # ------------------------------------------------------------------
    def _round(
        self,
        wid: int,
        k: int,
        runtime: ProtocolRuntime,
        params: Dict[int, np.ndarray],
        locks: Dict[int, Resource],
        model,
        optimizer: SGD,
        batcher: Batcher,
        gossip_count: List[int],
        rng,
        is_active: bool,
        partners: List[int],
    ):
        """Generator: one gossip-SGD iteration (shared by the static
        and elastic loops, so the two can never drift apart)."""
        env = runtime.env
        start = env.now
        runtime.gap.record(wid, k)
        model.set_params(params[wid])
        ticket = runtime.compute.submit(model, batcher)
        yield env.timeout(self.compute_model.duration(wid, k))
        loss, grad = ticket.result()

        if is_active and partners:
            # Atomic averaging with a random passive neighbor.  Under
            # churn, a partner that departed mid-compute is skipped
            # (its frozen parameters must not keep mixing in).
            partner = int(partners[rng.integers(0, len(partners))])
            if self._membership is None or self._membership.is_active(
                partner
            ):
                yield from self._gossip(
                    runtime, wid, partner, params, locks, gossip_count
                )

        # Apply the (pre-averaging) gradient to the averaged params.
        params[wid] = params[wid] + optimizer.step(params[wid], grad, k)
        runtime.log_loss[wid](env.now, loss)
        runtime.log_duration[wid](env.now, env.now - start)

    def _worker(
        self,
        wid: int,
        runtime: ProtocolRuntime,
        params: Dict[int, np.ndarray],
        locks: Dict[int, Resource],
        model,
        optimizer: SGD,
        batcher: Batcher,
        gossip_count: List[int],
    ):
        if self._membership is not None:
            return (
                yield from self._worker_elastic(
                    wid,
                    runtime,
                    params,
                    locks,
                    model,
                    optimizer,
                    batcher,
                    gossip_count,
                )
            )
        rng = self.streams.stream("gossip", wid)
        is_active, passive_neighbors = self._passive_partners(wid)
        for k in range(self.max_iter):
            yield from self._round(
                wid,
                k,
                runtime,
                params,
                locks,
                model,
                optimizer,
                batcher,
                gossip_count,
                rng,
                is_active,
                passive_neighbors,
            )
        runtime.done[wid] = True

    def _resync_payload(self, update_size: float) -> float:
        """Joiner re-sync ships what a gossip exchange would."""
        return self.gossip_payload(update_size)

    def _worker_elastic(
        self,
        wid: int,
        runtime: ProtocolRuntime,
        params: Dict[int, np.ndarray],
        locks: Dict[int, Resource],
        model,
        optimizer: SGD,
        batcher: Batcher,
        gossip_count: List[int],
    ):
        """The gossip loop under membership churn.

        Same math as the static loop; the differences are the
        leave/join lifecycle (drain, rewire, re-sync from the sponsor)
        and partner lists re-resolved at membership epoch boundaries.
        """
        env = runtime.env
        membership = self._membership
        rng = self.streams.stream("gossip", wid)
        leave = membership.leave_event(wid)
        k = 0
        if not membership.is_active(wid):
            started = yield membership.rejoin_event(wid)
            if started is None:
                runtime.done[wid] = True
                return
            yield from self._join_resync(runtime, wid, params)
            k = started
        local_epoch = -1
        is_active = False
        partners: List[int] = []
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
                yield from self._join_resync(runtime, wid, params)
                leave = None  # the cycle is spent
                k = started
                continue
            if membership.epoch != local_epoch:
                local_epoch = membership.epoch
                is_active, partners = self._elastic_partners(wid)
            membership.on_iteration(wid, k, env.now)
            yield from self._round(
                wid,
                k,
                runtime,
                params,
                locks,
                model,
                optimizer,
                batcher,
                gossip_count,
                rng,
                is_active,
                partners,
            )
            self._completed[wid] = k + 1
            k += 1
        runtime.done[wid] = True

    # ------------------------------------------------------------------
    # ProtocolCluster hooks
    # ------------------------------------------------------------------
    def _iterations_completed(self, runtime: ProtocolRuntime) -> List[int]:
        if self._membership is not None:
            return list(self._completed)
        return super()._iterations_completed(runtime)
    def _start(self, runtime: ProtocolRuntime) -> None:
        env = runtime.env
        if self.churn is not None:
            from repro.membership import MembershipRuntime, MembershipView

            view = MembershipView.founding(
                self.topology,
                absent=self.churn.initially_absent(),
                policy=self.churn.policy,
            )
            self._membership = MembershipRuntime(
                env, view, self.churn, self.max_iter, gap=runtime.gap
            )
        self._params: Dict[int, np.ndarray] = {
            wid: runtime.models[wid].get_params()
            for wid in range(self.n_workers)
        }
        # One CHOCO reference channel per worker (None when dense).
        self._gossip_compressors = [
            self._stream_compressor(runtime, wid)
            for wid in range(self.n_workers)
        ]
        self._completed = [0] * self.n_workers
        locks = {
            wid: Resource(env, capacity=1) for wid in self.passive_set
        }
        self._gossip_count = [0]
        for wid in range(self.n_workers):
            env.process(
                self._worker(
                    wid,
                    runtime,
                    self._params,
                    locks,
                    runtime.models[wid],
                    self.optimizer_proto.clone(),
                    self._make_batcher(wid),
                    self._gossip_count,
                ),
                name=f"adpsgd-{wid}",
            )

    def _final_param_stack(self, runtime: ProtocolRuntime) -> np.ndarray:
        return np.stack(
            [self._params[wid] for wid in range(self.n_workers)]
        )

    def _config_description(self) -> str:
        return (
            f"AD-PSGD bipartite gossip, |active|={len(self.active_set)}, "
            f"gossips={self._gossip_count[0]}"
        )

    def _topology_name(self) -> str:
        return self.topology.name

    def _message_totals(self, runtime: ProtocolRuntime) -> Tuple[int, float]:
        gossips = self._gossip_count[0]
        return (
            2 * gossips,
            2.0 * gossips * self._gossip_wire(runtime),
        )


def _build_adpsgd(spec) -> ADPSGDCluster:
    return ADPSGDCluster(
        topology=spec.topology,
        links=spec.scenario_links(),
        churn=getattr(spec.built_scenario(), "churn", None),
        **spec_common_kwargs(spec),
    )


register_protocol(
    "adpsgd",
    _build_adpsgd,
    summary="AD-PSGD: asynchronous bipartite gossip averaging "
    "(unbounded gap)",
    paper="Lian et al. — ICML 2018 (arXiv:1710.06952)",
    elastic=True,  # gossip survives churn: partners re-resolve per epoch
)
