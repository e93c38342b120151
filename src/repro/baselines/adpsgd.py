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

The same gossip round carries two heterogeneity-robust momentum rules.
Plain worker-local momentum amplifies heterogeneity: each worker's
buffer accumulates its *own* biased gradient direction, so replicas
drift apart.

* ``momentum_mode="tracking"`` — *Momentum Tracking* [Takezawa et al.,
  arXiv:2209.15505]: momentum buffers are gossip-averaged alongside the
  parameters, so every buffer tracks an estimate of the *global*
  average gradient direction.  The gossip payload doubles (parameters
  + momentum), which the link model charges for.
* ``momentum_mode="quasi-global"`` — *Quasi-Global Momentum* [Lin et
  al., arXiv:2102.04761]: nothing extra is communicated; each worker
  re-estimates the global direction from its own parameter displacement
  across the gossip + local step and applies momentum to that.

:class:`ADPSGDCluster` is registered as protocol ``"adpsgd"`` (local
momentum, the optimizer's) and ``"momentum-tracking"`` (either rule).
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
from repro.sim.trace import SKIPPED

#: The ``momentum-tracking`` protocol's update rules.
MOMENTUM_MODES = ("tracking", "quasi-global")


def _average_pair(
    vectors: Dict[int, np.ndarray], wid: int, partner: int, compressors
) -> None:
    """Write back one vector's pairwise average.

    Compressed gossip is CHOCO-style: each side encodes the delta of its
    vector against its tracked reference, the peer folds the
    *reconstruction* into the average, and the residual error stays
    local.  Both encodes read the pre-average vectors, so the exchange
    is symmetric and order-independent.
    """
    if compressors[wid] is None:
        average = 0.5 * (vectors[wid] + vectors[partner])
        vectors[wid] = average.copy()
        vectors[partner] = average.copy()
        return
    _, recon_wid = compressors[wid].encode_state(vectors[wid])
    _, recon_partner = compressors[partner].encode_state(vectors[partner])
    vectors[wid] = 0.5 * (vectors[wid] + recon_partner)
    vectors[partner] = 0.5 * (recon_wid + vectors[partner])


class ADPSGDCluster(ProtocolCluster):
    """Asynchronous decentralized parallel SGD on a bipartite graph.

    Args:
        topology: Must be bipartite (checked); the two color classes
            become the active and passive sets.
        model_factory / dataset / optimizer: Same conventions as
            :class:`~repro.protocols.base.ProtocolCluster`.
        links: Network timing for the gossip round trips.
        compute_model: Worker compute-time oracle.
        momentum_mode: ``"local"`` (the optimizer's worker-local step
            after the gossip), ``"tracking"`` (gossip-averaged momentum
            buffers) or ``"quasi-global"`` (displacement-estimated
            momentum, no extra traffic); the last two run as protocol
            ``"momentum-tracking"`` with the optimizer's momentum as
            beta.
    """

    protocol = "adpsgd"

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
        churn=None,
        compression=None,
        momentum_mode: str = "local",
    ) -> None:
        if momentum_mode != "local" and momentum_mode not in MOMENTUM_MODES:
            raise ValueError(
                f"unknown momentum_mode {momentum_mode!r}; choose from "
                f"{('local',) + MOMENTUM_MODES}"
            )
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
            compression=compression,
            churn=churn,
        )
        self.topology = topology
        self.links = links or uniform_links()
        self.momentum_mode = momentum_mode
        if momentum_mode != "local":
            self.protocol = "momentum-tracking"
        #: Distinct vectors shipped per gossip direction: tracking rides
        #: its momentum buffer along.
        self._gossip_vectors = 2.0 if momentum_mode == "tracking" else 1.0
        #: Per-worker momentum buffers (momentum-tracking only).
        self._momentum: Optional[Dict[int, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Gossip machinery
    # ------------------------------------------------------------------
    def _gossip_wire(self, runtime: ProtocolRuntime) -> float:
        """Wire bytes per gossip direction (compression-aware)."""
        return self._wire_size(runtime, vectors=self._gossip_vectors)

    def _gossip(
        self,
        runtime: ProtocolRuntime,
        wid: int,
        partner: int,
        params: Dict[int, np.ndarray],
        locks: Dict[int, Resource],
        gossip_count: List[int],
    ):
        """Lock ``partner``, pay the round trip, average, release;
        returns when the lock was granted."""
        request = locks[partner].request()
        yield request
        granted = runtime.env.now
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
                return granted
            # The atomic-averaging step; tracking's momentum buffers
            # ride on their own compressor stream (sharing the params
            # channel would corrupt both references).
            _average_pair(params, wid, partner, self._gossip_compressors)
            if self.momentum_mode == "tracking":
                _average_pair(
                    self._momentum, wid, partner, self._momentum_compressors
                )
            gossip_count[0] += 1
        finally:
            locks[partner].release(request)
        return granted

    def _partners(self, wid: int) -> Tuple[bool, List[int]]:
        """``(is_active, live passive out-neighbors)`` for ``wid``.

        Under churn the graph is the membership view's.  The repaired
        graph may not stay bipartite (bridging an even ring creates odd
        cycles), but gossip safety only needs the active/passive
        *coloring*, which is fixed at founding: partners are the live
        out-neighbors of the opposite color, and edges the repair
        created inside one color class simply carry no gossip.
        """
        membership = self._membership
        topology = (
            self.topology if membership is None else membership.view.topology
        )
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
        """Generator: one gossip-SGD iteration under the cluster's
        momentum rule."""
        env = runtime.env
        mode = self.momentum_mode
        start = env.now
        if mode == "quasi-global":
            x_round_start = params[wid].copy()
        runtime.gap.record(wid, k)
        model.set_params(params[wid])
        ticket = runtime.compute.submit(model, batcher)
        yield env.timeout(self.compute_model.duration(wid, k))
        computed = env.now
        gate = recv = SKIPPED
        loss, grad = ticket.result()
        if mode != "local":
            # Both momentum rules decay the pre-gossip parameters.
            grad = np.asarray(grad, dtype=np.float64)
            if optimizer.weight_decay > 0.0:
                grad = grad + optimizer.weight_decay * params[wid]

        if is_active and partners:
            # Atomic averaging with a random passive neighbor (tracking
            # mode's momentum buffers ride along).  Under churn, a
            # partner that departed mid-compute is skipped (its frozen
            # parameters must not keep mixing in).
            partner = int(partners[rng.integers(0, len(partners))])
            if self._membership is None or self._membership.is_active(
                partner
            ):
                lock = env.now  # the lock wait gates, the round trip recvs
                granted = yield from self._gossip(
                    runtime, wid, partner, params, locks, gossip_count
                )
                gate, recv = (lock, granted), (granted, env.now)

        if mode == "local":
            # Apply the (pre-averaging) gradient to the averaged params.
            params[wid] = params[wid] + optimizer.step(params[wid], grad, k)
        else:
            momentum = self._momentum
            beta = optimizer.momentum
            lr = optimizer.schedule(k)
            if mode == "tracking":
                # Buffers approximate the *global* gradient direction
                # because gossip keeps mixing them.
                momentum[wid] = beta * momentum[wid] + grad
                params[wid] = params[wid] - lr * momentum[wid]
            else:
                # Quasi-global: apply momentum from the previous global
                # direction estimate, then refresh the estimate from the
                # realized displacement (gossip + local step).
                params[wid] = params[wid] - lr * (grad + beta * momentum[wid])
                momentum[wid] = beta * momentum[wid] + (1.0 - beta) * (
                    (x_round_start - params[wid]) / lr
                )
        runtime.ledger.record(
            wid, k, start, env.now, loss, (start, computed), recv, gate
        )

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
        """One gossip worker; partners re-resolve at membership epochs."""
        rng = self.streams.stream("gossip", wid)
        membership = self._membership
        epoch, is_active, partners = None, False, []

        def round_at(k: int):
            nonlocal epoch, is_active, partners
            now_epoch = membership.epoch if membership is not None else 0
            if now_epoch != epoch:
                epoch = now_epoch
                is_active, partners = self._partners(wid)
            return self._round(
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

        yield from self._member_loop(
            runtime,
            wid,
            round_at,
            lambda: self._join_resync(runtime, wid, params),
        )

    def _resync_joiner(
        self, params: Dict[int, np.ndarray], wid: int, active
    ) -> Optional[int]:
        """A joiner copies the sponsor's momentum buffer alongside its
        parameters: a stale (or zeroed) buffer would inject the joiner's
        dark-period direction estimate into the tracked global one."""
        sponsor = super()._resync_joiner(params, wid, active)
        if sponsor is not None and self._momentum is not None:
            self._momentum[wid] = self._momentum[sponsor].copy()
        return sponsor

    def _resync_payload(self, update_size: float) -> float:
        """Joiner re-sync ships what a gossip exchange would."""
        return payload_bytes(update_size, vectors=self._gossip_vectors)

    # ------------------------------------------------------------------
    # ProtocolCluster hooks
    # ------------------------------------------------------------------
    def _start(self, runtime: ProtocolRuntime) -> None:
        env = runtime.env
        if self.churn is not None:
            self._membership_runtime(runtime, self.topology)
        self._params: Dict[int, np.ndarray] = {
            wid: runtime.models[wid].get_params()
            for wid in range(self.n_workers)
        }
        # One CHOCO reference channel per worker and stream (None when
        # dense).
        self._gossip_compressors = [
            self._stream_compressor(runtime, wid)
            for wid in range(self.n_workers)
        ]
        if self.momentum_mode != "local":
            self._momentum = {
                wid: np.zeros(self._params[wid].shape)
                for wid in range(self.n_workers)
            }
            self._momentum_compressors = [
                self._stream_compressor(runtime, wid, stream="momentum")
                for wid in range(self.n_workers)
            ]
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
        gossips = self._gossip_count[0]
        if self.momentum_mode == "local":
            return (
                f"AD-PSGD bipartite gossip, |active|={len(self.active_set)}, "
                f"gossips={gossips}"
            )
        return (
            f"momentum-tracking gossip ({self.momentum_mode}, "
            f"beta={self.optimizer_proto.momentum:g}), gossips={gossips}"
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
        **spec_common_kwargs(spec),
    )


def _build_momentum_tracking(spec) -> ADPSGDCluster:
    return ADPSGDCluster(
        topology=spec.topology,
        links=spec.scenario_links(),
        momentum_mode=spec.momentum_mode,
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
register_protocol(
    "momentum-tracking",
    _build_momentum_tracking,
    summary="Gossip SGD with heterogeneity-robust momentum "
    "(momentum tracking or quasi-global)",
    paper="Takezawa et al. — arXiv:2209.15505; Lin et al. — "
    "arXiv:2102.04761",
    elastic=True,  # AD-PSGD's lifecycle; momentum re-synced on join
)
