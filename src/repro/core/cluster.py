"""HopCluster: builds and runs a decentralized training deployment.

The cluster wires together every substrate — topology, queues, token
queues, network, compute model, per-worker model replicas and data
streams — starts one worker process per node, runs the simulation to
completion, and packages the results as a
:class:`~repro.protocols.base.TrainingRun`.

Protocols: ``"hop"`` (the paper's system, all modes of
:class:`~repro.core.config.HopConfig`) and ``"notify_ack"``
(the Section 3.3 baseline).  Both are registered with the protocol
registry (:mod:`repro.protocols.registry`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import NOTIFY_ACK, STANDARD, HopConfig
from repro.core.gap import update_queue_capacity_bound
from repro.core.planes import HopEmitter, Record, replay, replayable
from repro.core.queues import RotatingUpdateQueue, TokenQueue, UpdateQueue
from repro.core.skip import SkipPolicy
from repro.core.worker import ClusterState, HopWorker
from repro.graphs.topology import Topology
from repro.net.links import Link, LinkModel, uniform_links
from repro.net.message import CONTROL_SIZE
from repro.net.network import Network, SharedNic
from repro.protocols.base import DeadlockError, ProtocolCluster, ProtocolRuntime
from repro.protocols.registry import register_protocol, spec_common_kwargs
from repro.scenarios.faults import CrashEvent
from repro.sim.engine import Environment

__all__ = ["HopCluster"]

#: A hop worker's event counters, in ``worker_stats`` order.
HOP_COUNTERS = ("n_restarts", "n_jumps", "n_suppressed_sends",
                "n_extra_updates", "n_staleness_blocks")


class HopCluster(ProtocolCluster):
    """Build-and-run facade for Hop / NOTIFY-ACK training experiments.

    Args:
        topology: Communication graph (validated on construction).
        config: Hop protocol configuration.
        model_factory: ``f(rng) -> Model``; called with identically
            seeded streams so all replicas start from the same
            parameters (the paper's shared ``p0``): once per worker on
            the eager plane, twice on a replaying run (see
            :class:`~repro.protocols.base.ProtocolCluster`).
        dataset: Train/test data; every worker samples the full training
            split with its own RNG stream.
        optimizer: SGD prototype; cloned per worker on the eager plane
            (worker-local momentum).
        batch_size: Minibatch size per worker per iteration.
        compute_model: Per-iteration compute-time oracle (heterogeneity
            lives here).
        links: Network timing model.
        protocol: ``"hop"`` or ``"notify_ack"``.
        max_iter: Iterations per worker.
        seed: Master seed for all randomness.
        update_size: Message size of one parameter update; derived from
            the model dimension when omitted.
        token_rtt: Control round-trip charged per token acquisition
            round; derived from ``links`` when omitted.
        evaluate: Whether to evaluate the averaged final model on the
            test split.
        machines: Optional worker -> machine placement; co-located
            workers then share their host's uplink NIC.
        machine_uplink: The shared per-machine uplink.
        crash_events: ``{worker: CrashEvent}`` scenario fault injection
            (hop only): permanent fail-stop or crash-restart with
            neighbor re-sync.
        message_loss: Optional loss-with-retransmit network fault model
            (:class:`repro.scenarios.faults.MessageLoss`).
        churn: Optional :class:`~repro.membership.ChurnPlan`: scripted
            worker leave/join with topology rewiring through the
            membership plane; ``TrainingRun.membership_events`` records
            every enacted transition.  Hop repairs its token-queue
            fabric (:class:`~repro.membership.HopMembership`);
            NOTIFY-ACK repairs its per-edge ACK channels
            (:class:`~repro.membership.NotifyAckMembership`).
    """

    def __init__(
        self,
        topology: Topology,
        config: HopConfig,
        model_factory,
        dataset,
        optimizer=None,
        batch_size: int = 32,
        compute_model=None,
        links=None,
        protocol: str = "hop",
        max_iter: int = 100,
        seed: int = 0,
        update_size: Optional[float] = None,
        token_rtt: Optional[float] = None,
        evaluate: bool = True,
        machines: Optional[Sequence[int]] = None,
        machine_uplink: Optional[Link] = None,
        crash_events: Optional[Dict[int, CrashEvent]] = None,
        message_loss=None,
        churn=None,
        compression=None,
    ) -> None:
        if protocol not in ("hop", "notify_ack"):
            raise ValueError(f"unknown protocol {protocol!r}")
        topology.validate()
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
        if config.mode == "backup":
            min_in = min(
                topology.in_degree(i, include_self=True)
                for i in range(topology.n)
            )
            if config.n_backup >= min_in:
                raise ValueError(
                    f"n_backup={config.n_backup} >= minimum in-degree "
                    f"{min_in}; some worker would need zero updates"
                )
        self.topology = topology
        self.config = config
        self.protocol = protocol
        self.links = links or uniform_links()
        self._token_rtt = token_rtt
        if machines is not None and len(machines) != topology.n:
            raise ValueError(
                f"machines maps {len(machines)} workers, topology has "
                f"{topology.n}"
            )
        self.machines = list(machines) if machines is not None else None
        self.machine_uplink = machine_uplink or Link(
            latency=2e-4, bandwidth=125.0
        )
        if crash_events and protocol != "hop":
            raise ValueError("crash injection is only supported for hop")
        self.crash_events: Dict[int, CrashEvent] = dict(crash_events or {})
        self.message_loss = message_loss

    @property
    def worker_config(self) -> HopConfig:
        """The config the workers run.  NOTIFY-ACK's ignores ``config``,
        which reaches it only through the update queues."""
        return self.config if self.protocol == "hop" else NOTIFY_ACK

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_update_queue(self, env: Environment, wid: int, topology=None):
        topology = topology if topology is not None else self.topology
        impl = self.config.effective_queue_impl
        if not self.config.use_token_queues:
            impl = "tagged"  # rotating slots need a bounded gap
        if impl == "rotating":
            return RotatingUpdateQueue(env, self.config.max_ig, owner=wid)
        capacity = None
        if self.config.bound_update_queues and self.config.use_token_queues:
            capacity = update_queue_capacity_bound(
                topology, wid, self.config.max_ig
            )
        return UpdateQueue(env, owner=wid, capacity=capacity)

    def _build_token_queues(
        self, env: Environment, topology=None
    ) -> Dict[Tuple[int, int], TokenQueue]:
        """One token queue per directed edge (none without the fabric).

        Hop primes each with ``max_ig - 1`` tokens (Section 4.2).
        NOTIFY-ACK's ACK channels are the same queues primed with one
        token, the implicit ACK(-1) that lets Send(0) through.
        """
        topology = topology if topology is not None else self.topology
        queues: Dict[Tuple[int, int], TokenQueue] = {}
        if self.protocol == "notify_ack":
            initial = 1
        elif self.config.use_token_queues:
            initial = self.config.max_ig - 1
        else:
            return queues
        for consumer, owner in topology.edges:
            if consumer == owner:
                continue
            # Edge consumer->owner means owner in Nout(consumer):
            # TokenQ(owner -> consumer) gates consumer's progress.
            queues[(owner, consumer)] = TokenQueue(
                env, owner=owner, consumer=consumer, initial=initial
            )
        return queues

    def _token_rtt_for(self, wid: int) -> float:
        if self._token_rtt is not None:
            return self._token_rtt
        providers = self.topology.out_neighbors(wid, include_self=False)
        if not providers:
            return 0.0
        links = self.links
        if type(links) is LinkModel and not links.overrides:
            # The uniform fabric: every provider's round trip is the
            # default link's.
            return links.round_trip(wid, providers[0], CONTROL_SIZE)
        return max(
            self.links.round_trip(wid, j, CONTROL_SIZE) for j in providers
        )

    def _build_network(self, env: Environment) -> Network:
        if self.machines is None:
            return Network(env, self.links, message_loss=self.message_loss)
        # One shared uplink per machine: co-located workers contend for
        # their host's NIC on cross-machine sends.
        machine_nics: Dict[int, SharedNic] = {}
        for machine in sorted(set(self.machines)):
            machine_nics[machine] = SharedNic(
                env,
                bandwidth=self.machine_uplink.bandwidth,
                latency=self.machine_uplink.latency,
            )
        egress = {
            wid: machine_nics[self.machines[wid]]
            for wid in range(self.topology.n)
        }
        return Network(
            env,
            self.links,
            egress_nics=egress,
            machine_of=self.machines,
            message_loss=self.message_loss,
        )

    # ------------------------------------------------------------------
    # ProtocolCluster hooks
    # ------------------------------------------------------------------
    def _replays(self, model) -> bool:
        return replayable(self, model, self.worker_config)

    def _start(self, runtime: ProtocolRuntime) -> None:
        env = runtime.env
        n = self.topology.n
        self._network = self._build_network(env)
        self._state = ClusterState(n)

        # Membership plane (elastic runs): the founding view may exclude
        # late joiners, and every queue/capacity derives from the *live*
        # topology rather than the spec's static one.
        membership = None
        if self.churn is not None:
            from repro.membership import (
                HopMembership,
                MembershipView,
                NotifyAckMembership,
            )

            view = MembershipView.founding(
                self.topology,
                absent=self.churn.initially_absent(),
                policy=self.churn.policy,
            )
            live_topology = view.topology
        else:
            live_topology = self.topology

        update_queues = {
            wid: self._build_update_queue(env, wid, live_topology)
            for wid in range(n)
        }
        token_queues = self._build_token_queues(env, live_topology)

        hop = self.protocol == "hop"
        config = self.worker_config
        if self.churn is not None:
            # NOTIFY-ACK's membership repairs its ACK channels as Hop's
            # repairs a token fabric.
            membership = (HopMembership if hop else NotifyAckMembership)(
                env,
                view,
                self.churn,
                self.max_iter,
                state=self._state,
                config=self.config if hop else STANDARD,
                update_queues=update_queues,
                token_queues=token_queues,
                gap=runtime.gap,
            )
            self._membership = membership
            self._network.membership = membership
        replays = runtime.replays
        self.record = record = (
            Record(n, self.max_iter, lockstep=config.mode != "staleness")
            if replays
            else None
        )
        workers: List[HopWorker] = []
        for wid in range(n):
            skip_policy = (
                SkipPolicy(config.skip, config.max_ig)
                if config.skip is not None
                else None
            )
            worker = HopWorker(
                wid=wid,
                env=env,
                topology=live_topology,
                config=config,
                # A replaying worker is a row of the replay's block.
                model=None if replays else runtime.models[wid],
                optimizer=None if replays else self.optimizer_proto.clone(),
                batcher=self._make_batcher(wid),
                compute=runtime.compute,
                compute_model=self.compute_model,
                network=self._network,
                update_queues=update_queues,
                token_queues=token_queues,
                state=self._state,
                gap_tracker=runtime.gap,
                ledger=runtime.ledger,
                max_iter=self.max_iter,
                update_size=runtime.update_size,
                token_rtt=self._token_rtt_for(wid)
                if config.use_token_queues
                else 0.0,
                skip_policy=skip_policy,
                crash_event=self.crash_events.get(wid),
                record=record,
                notify_ack=not hop,
            )
            workers.append(worker)
        self._workers = workers
        #: Worker processes by wid (what a stuck worker is parked on).
        self._processes: List[object] = []
        if self.compression is not None:
            # Per-worker error-feedback channels plus the shared wire
            # pricing; the dense path leaves workers untouched.
            wire_size = self._wire_size(runtime)
            for worker in workers:
                worker.compressor = self._stream_compressor(
                    runtime, worker.wid
                )
                worker.wire_size = wire_size
        peers = {worker.wid: worker for worker in workers}
        # Only crash-restart-with-resync and membership (re)joins ever
        # read another worker's ``current_params``; everyone else skips
        # the per-iteration snapshot copy entirely (zero-copy fast
        # path).
        needs_snapshots = any(
            not event.permanent and event.resync
            for event in self.crash_events.values()
        )
        if self.churn is not None:
            needs_snapshots = needs_snapshots or any(
                event.join_at is not None and event.resync
                for event in self.churn.events
            )
        for worker in workers:
            worker.peers = peers  # restart re-sync needs live peers
            worker.snapshot_params = needs_snapshots
            if membership is not None:
                worker.membership = membership
                worker.churn_event = self.churn.event_for(worker.wid)
                if not membership.is_active(worker.wid):
                    worker.down = True  # dark until the join is enacted
            self._processes.append(
                env.process(worker.run(), name=f"worker-{worker.wid}")
            )
        if membership is not None:
            membership.workers = peers

    def _check_complete(self, runtime: ProtocolRuntime) -> None:
        if not self._state.all_done():
            stuck = [
                (w.wid, int(self._state.iterations[w.wid]))
                for w in self._workers
                if not self._state.done[w.wid]
            ]
            # Permanently crashed workers legitimately strand themselves
            # and (eventually) their dependents; crash-*restart* events
            # must still finish, so only permanent crashes excuse a
            # stall.
            has_permanent_crash = any(
                event.permanent for event in self.crash_events.values()
            )
            if not has_permanent_crash:
                # Each stuck process is parked on the event that never
                # fired; its repr says which updates or whose tokens.
                blocked = "; ".join(
                    f"worker {wid} at iteration {iteration} on "
                    f"{self._processes[wid].target!r}"
                    for wid, iteration in stuck
                )
                raise DeadlockError(
                    f"{len(stuck)} workers never finished; (wid, iter) = "
                    f"{stuck}. This indicates a protocol deadlock or an "
                    f"unsatisfiable advance condition. Blocked: {blocked}.",
                    stuck=stuck,
                )

    def _after_simulation(self, runtime: ProtocolRuntime) -> None:
        if self.record is None:
            return
        # The queues are garbage once the record is written; free them
        # before the replay's blocks peak.
        workers = self._workers
        for worker in workers:
            worker.detach_queues()
        emitter = HopEmitter(
            self.record,
            workers,
            runtime.compute,
            self.optimizer_proto,
            self.worker_config,
            runtime.model.get_params(),
        )
        replay(self.record, emitter)
        for worker, params in zip(workers, emitter.x):
            worker.final_params = worker.current_params = params
        runtime.ledger.fill_losses(emitter.losses)

    def _final_param_stack(self, runtime: ProtocolRuntime) -> np.ndarray:
        return np.stack([w.final_params for w in self._workers])

    def _config_description(self) -> str:
        if self.protocol == "hop":
            return self.config.describe()
        return "serial + ACK gating"

    def _topology_name(self) -> str:
        return self.topology.name

    def _message_totals(self, runtime: ProtocolRuntime) -> Tuple[int, float]:
        # Network.bytes_sent is delivered payload only since the
        # accounting split; the legacy offered-bytes aggregate moved to
        # _byte_stats (bytes_attempted).
        return self._network.messages_sent, self._network.bytes_sent.total

    def _byte_stats(
        self, runtime: ProtocolRuntime, bytes_sent: float
    ) -> Dict[str, float]:
        network = self._network
        return {
            "bytes_dropped": network.bytes_dropped.total,
            "control_bytes": network.control_bytes.total,
            "bytes_retransmitted": network.bytes_retransmitted.total,
            "bytes_attempted": network.bytes_attempted.total,
        }

    def _messages_dropped(self, runtime: ProtocolRuntime) -> int:
        return self._network.messages_dropped

    def _iterations_completed(self, runtime: ProtocolRuntime) -> List[int]:
        return [w.iterations_completed for w in self._workers]

    def _iterations_skipped(self, runtime: ProtocolRuntime) -> List[int]:
        return [w.iterations_skipped for w in self._workers]

    #: A hop iteration's loss is timed at the end of its receive.
    loss_at = "recv_to"

    #: Hop's family reports each worker's mean loss.
    loss_mean = True

    @property
    def gate_stat(self) -> str:
        return "token_wait_mean" if self.protocol == "hop" else "ack_wait_mean"

    def _worker_extras(self, runtime: ProtocolRuntime) -> List[dict]:
        """Skipped iterations; hop adds its event counters."""
        counters = HOP_COUNTERS if self.protocol == "hop" else ()
        return [
            {"iterations_skipped": w.iterations_skipped,
             **{name: getattr(w, name) for name in counters}}
            for w in self._workers
        ]


# ----------------------------------------------------------------------
# Registry entries
# ----------------------------------------------------------------------
def _build_hop(spec) -> HopCluster:
    scenario = spec.built_scenario()
    return HopCluster(
        topology=spec.topology,
        config=spec.config,
        protocol="hop",
        links=spec.scenario_links(),
        machines=spec.machines,
        crash_events=scenario.faults.crash_events(),
        message_loss=spec.scenario_message_loss(),
        **spec_common_kwargs(spec),
    )


def _build_notify_ack(spec) -> HopCluster:
    # notify_ack has no native crash semantics; spec_common_kwargs
    # composed any crash downtime into the compute model instead.
    return HopCluster(
        topology=spec.topology,
        config=spec.config,
        protocol="notify_ack",
        links=spec.scenario_links(),
        machines=spec.machines,
        message_loss=spec.scenario_message_loss(),
        **spec_common_kwargs(spec),
    )


register_protocol(
    "hop",
    _build_hop,
    summary="Hop: bounded-gap decentralized training (backup workers, "
    "bounded staleness, skipping)",
    paper="Luo, Lin, Zhuo, Qian — ASPLOS 2019 (arXiv:1902.01064)",
    native_faults=True,  # _build_hop wires crash_events into workers
    elastic=True,  # full membership plane: queue-fabric repair + rewiring
)
register_protocol(
    "notify_ack",
    _build_notify_ack,
    summary="NOTIFY-ACK gating: serial computation graph baseline "
    "(Hop Section 3.3)",
    paper="Luo, Lin, Zhuo, Qian — ASPLOS 2019 (arXiv:1902.01064)",
    # Inherits hop's leave/join machinery; the serial gating graph is
    # repaired per edge through NotifyAckMembership's ACK channels.
    elastic=True,
)
