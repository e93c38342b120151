"""Momentum-tracking gossip: heterogeneity-robust momentum for AD-PSGD.

Plain worker-local momentum amplifies heterogeneity in decentralized
training: each worker's momentum buffer accumulates its *own* biased
gradient direction, so replicas drift apart.  Two published corrections
are implemented here on top of the AD-PSGD active/passive gossip
pattern (:class:`~repro.baselines.adpsgd.ADPSGDCluster`):

* ``momentum_mode="tracking"`` — *Momentum Tracking* [Takezawa et al.,
  arXiv:2209.15505]: momentum buffers are gossip-averaged alongside the
  parameters, so every buffer tracks an estimate of the *global*
  average gradient direction rather than the worker-local one.  The
  gossip payload doubles (parameters + momentum), which the link model
  charges for — the accuracy/bandwidth trade-off the comparison figure
  shows.
* ``momentum_mode="quasi-global"`` — *Quasi-Global Momentum* [Lin et
  al., arXiv:2102.04761]: nothing extra is communicated; each worker
  re-estimates the global direction from its own parameter displacement
  across the gossip + local step and applies momentum to that.

Registered as protocol ``"momentum-tracking"``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.baselines.adpsgd import ADPSGDCluster
from repro.graphs.topology import Topology
from repro.ml.data import Batcher
from repro.ml.optim import SGD
from repro.protocols.base import ProtocolRuntime
from repro.protocols.registry import register_protocol, spec_common_kwargs
from repro.sim.resources import Resource

MOMENTUM_MODES = ("tracking", "quasi-global")


class MomentumTrackingCluster(ADPSGDCluster):
    """AD-PSGD gossip with heterogeneity-robust momentum.

    Args:
        topology: Bipartite gossip graph (same constraint as AD-PSGD).
        momentum_mode: ``"tracking"`` (gossip-averaged momentum buffers)
            or ``"quasi-global"`` (displacement-estimated momentum,
            no extra traffic).
        beta: Momentum coefficient; defaults to the optimizer
            prototype's momentum (the workload's 0.9).
        Remaining arguments: see
            :class:`~repro.baselines.adpsgd.ADPSGDCluster`.
    """

    protocol = "momentum-tracking"

    def __init__(
        self,
        topology: Topology,
        model_factory,
        dataset,
        optimizer: Optional[SGD] = None,
        momentum_mode: str = "tracking",
        beta: Optional[float] = None,
        links=None,
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
        if momentum_mode not in MOMENTUM_MODES:
            raise ValueError(
                f"unknown momentum_mode {momentum_mode!r}; choose from "
                f"{MOMENTUM_MODES}"
            )
        super().__init__(
            topology=topology,
            model_factory=model_factory,
            dataset=dataset,
            optimizer=optimizer,
            links=links,
            compute_model=compute_model,
            batch_size=batch_size,
            max_iter=max_iter,
            seed=seed,
            update_size=update_size,
            evaluate=evaluate,
            trace_channels=trace_channels,
            churn=churn,
            compression=compression,
        )
        self.momentum_mode = momentum_mode
        self.beta = (
            float(beta) if beta is not None else self.optimizer_proto.momentum
        )
        self.weight_decay = self.optimizer_proto.weight_decay
        self._lr = self.optimizer_proto.schedule

    def _gossip_vectors(self) -> float:
        """Tracking mode ships two vectors (parameters + momentum); the
        shared :func:`~repro.net.message.payload_bytes` pricing doubles
        the wire accordingly."""
        if self.momentum_mode == "tracking":
            return 2.0
        return 1.0

    def _average_state(
        self, wid: int, partner: int, params: Dict[int, np.ndarray]
    ) -> None:
        """Average parameters — and, in tracking mode, momentum too.

        Compressed runs ship the momentum buffer through its own
        CHOCO reference channel (stream ``"momentum"``): sharing the
        params channel would corrupt both references.
        """
        super()._average_state(wid, partner, params)
        if self.momentum_mode == "tracking":
            momentum = self._momentum
            compressors = getattr(self, "_momentum_compressors", None)
            if compressors is None or compressors[wid] is None:
                mean_u = 0.5 * (momentum[wid] + momentum[partner])
                momentum[wid] = mean_u.copy()
                momentum[partner] = mean_u.copy()
                return
            _, recon_wid = compressors[wid].encode_state(momentum[wid])
            _, recon_partner = compressors[partner].encode_state(
                momentum[partner]
            )
            momentum[wid] = 0.5 * (momentum[wid] + recon_partner)
            momentum[partner] = 0.5 * (recon_wid + momentum[partner])

    def _resync_joiner(
        self, params: Dict[int, np.ndarray], wid: int, active
    ) -> Optional[int]:
        """A joiner copies the sponsor's momentum buffer alongside its
        parameters: a stale (or zeroed) buffer would inject the joiner's
        dark-period direction estimate into the tracked global one.  In
        tracking mode the payload already doubles via
        :meth:`gossip_payload`, which prices the extra buffer."""
        sponsor = super()._resync_joiner(params, wid, active)
        if sponsor is not None:
            self._momentum[wid] = self._momentum[sponsor].copy()
        return sponsor

    # ------------------------------------------------------------------
    # The momentum round (plugs into ADPSGD's worker loop)
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
        """Generator: one momentum-gossip iteration.

        Overrides ADPSGD's plain-momentum round; the inherited worker
        loop drives it, with or without churn."""
        env = runtime.env
        beta = self.beta
        momentum = self._momentum
        tracking = self.momentum_mode == "tracking"

        start = env.now
        x_round_start = params[wid].copy()
        runtime.gap.record(wid, k)
        model.set_params(params[wid])
        ticket = runtime.compute.submit(model, batcher)
        yield env.timeout(self.compute_model.duration(wid, k))
        loss, grad = ticket.result()
        grad = np.asarray(grad, dtype=np.float64)
        if self.weight_decay > 0.0:
            grad = grad + self.weight_decay * params[wid]

        if is_active and partners:
            # Atomic averaging with a random passive neighbor; in
            # tracking mode the momentum buffers ride along (see
            # _average_state), at double payload.  Under churn, a
            # partner that departed mid-compute is skipped.
            partner = int(partners[rng.integers(0, len(partners))])
            if self._membership is None or self._membership.is_active(
                partner
            ):
                yield from self._gossip(
                    runtime, wid, partner, params, locks, gossip_count
                )

        lr = self._lr(k)
        if tracking:
            # Momentum Tracking: buffers approximate the *global*
            # gradient direction because gossip keeps mixing them.
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

        runtime.log_loss[wid](env.now, loss)
        runtime.log_duration[wid](env.now, env.now - start)

    # ------------------------------------------------------------------
    # ProtocolCluster hooks
    # ------------------------------------------------------------------
    def _start(self, runtime: ProtocolRuntime) -> None:
        dim = runtime.models[0].get_params().shape
        self._momentum: Dict[int, np.ndarray] = {
            wid: np.zeros(dim) for wid in range(self.n_workers)
        }
        self._momentum_compressors = [
            self._stream_compressor(runtime, wid, stream="momentum")
            for wid in range(self.n_workers)
        ]
        super()._start(runtime)

    def _config_description(self) -> str:
        return (
            f"momentum-tracking gossip ({self.momentum_mode}, "
            f"beta={self.beta:g}), gossips={self._gossip_count[0]}"
        )


def _build_momentum_tracking(spec) -> MomentumTrackingCluster:
    return MomentumTrackingCluster(
        topology=spec.topology,
        links=spec.scenario_links(),
        momentum_mode=spec.momentum_mode,
        **spec_common_kwargs(spec),
    )


register_protocol(
    "momentum-tracking",
    _build_momentum_tracking,
    summary="Gossip SGD with heterogeneity-robust momentum "
    "(momentum tracking or quasi-global)",
    paper="Takezawa et al. — arXiv:2209.15505; Lin et al. — "
    "arXiv:2102.04761",
    elastic=True,  # inherits ADPSGD's lifecycle; momentum re-synced on join
)
