"""Shared scaffolding every training protocol builds on.

A *protocol* in this repository is a way of coordinating ``n`` model
replicas that train on the same dataset: Hop's bounded-gap queues, a
parameter server, ring all-reduce, gossip variants, partial
all-reduce...  All of them share the same simulation skeleton:

1. build one deterministic model replica per worker (identical ``p0``),
   or, when the run replays its math, one model for all of them,
2. wire protocol-specific coordination state (queues, locks, NICs),
3. spawn one simulated process per worker (plus any servers) in a
   :class:`~repro.sim.engine.Environment`,
4. run the event loop to completion,
5. average/evaluate the final parameters and package every measurement
   as a :class:`TrainingRun`.

:class:`ProtocolCluster` owns steps 1, 4 and 5 (and the metrics/run
summary conventions); subclasses implement step 2/3 in :meth:`_start`
and describe themselves through small hooks.  The
:mod:`repro.protocols.registry` maps protocol names to builders so the
harness and CLI can construct any registered cluster from an
:class:`~repro.harness.spec.ExperimentSpec`.

To add a new protocol, subclass :class:`ProtocolCluster`, implement
``_start`` (spawn processes that eventually set ``runtime.done``), the
description hooks, and register a builder — see
``docs/ARCHITECTURE.md`` for a worked example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.spectral import consensus_distance
from repro.ml.compute import ComputePool
from repro.ml.data import Batcher, Dataset
from repro.ml.metrics import smooth_series
from repro.ml.optim import SGD
from repro.net.message import params_message_size, payload_bytes
from repro.scenarios.models import ComputeModel
from repro.sim.engine import Environment
from repro.sim.rng import RngStreams
from repro.sim.trace import Ledger

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard for type hints
    from repro.core.gap import ObservedGaps


#: What the benchmark's recipes pass as ``ExperimentSpec.trace_channels``,
#: which is ignored: a run keeps one time record, its
#: :class:`~repro.sim.trace.Ledger`.  Kept only for ``bench/`` until
#: ROADMAP item 5(f).
LIGHT_TRACE = ()


class DeadlockError(RuntimeError):
    """The simulation ran out of events before all workers finished.

    Attributes:
        stuck: ``(worker_id, iteration)`` pairs for unfinished workers.
    """

    def __init__(self, message: str, stuck=None) -> None:
        super().__init__(message)
        self.stuck = list(stuck or [])


@dataclass
class TrainingRun:
    """Everything measured during one training run."""

    protocol: str
    config_description: str
    topology_name: str
    n_workers: int
    max_iter: int
    wall_time: float
    #: The realized iteration gaps, read off the ledger.
    gap: ObservedGaps
    iterations_completed: List[int]
    iterations_skipped: List[int]
    messages_sent: int
    bytes_sent: float
    final_params: np.ndarray
    final_loss: Optional[float] = None
    final_accuracy: Optional[float] = None
    consensus: float = 0.0
    worker_stats: List[dict] = field(default_factory=list)
    #: Every worker-iteration's phase boundaries and loss
    #: (``worker_stats`` and :meth:`loss_series` are derived from it).
    ledger: Ledger = field(default_factory=Ledger)
    #: Crash/recovery lifecycle events (scenario fault injection):
    #: ``{"kind": "crashed"|"restarted"|"resynced", "worker", "time",
    #: "iteration"}``, time-ordered (:meth:`Ledger.fault_events`).
    fault_events: List[dict] = field(default_factory=list)
    #: Messages lost (and retransmitted) by the network fault layer,
    #: plus in-flight messages dropped at departed membership members.
    messages_dropped: int = 0
    #: Payload bytes of in-flight messages dropped by membership
    #: departures.  ``bytes_sent`` counts *delivered* payload only;
    #: ``bytes_sent + bytes_dropped`` is everything launched.
    bytes_dropped: float = 0.0
    #: Control-plane bytes (ACKs, tokens, RPCs): charged for timing but
    #: kept out of the payload-volume stats.
    control_bytes: float = 0.0
    #: Extra bytes burned by lost-and-retransmitted attempts.
    bytes_retransmitted: float = 0.0
    #: Legacy aggregate: every byte offered to the fabric (payload and
    #: control, delivered or not), in launch order — the quantity the
    #: recorded golden-stats cells pin under their ``bytes_sent`` key.
    #: For protocols without a Network object this equals
    #: ``bytes_sent``.
    bytes_attempted: float = 0.0
    #: Membership-plane lifecycle (elastic runs under churn scenarios):
    #: ``{"kind": "join"|"leave"|"rewire", "worker", "time",
    #: "iteration", "epoch", ...}``, enactment-ordered; rewire records
    #: additionally carry ``edges_added`` / ``edges_removed`` /
    #: ``rewire_cost`` / ``spectral_gap`` / ``n_active``.
    membership_events: List[dict] = field(default_factory=list)
    #: Exact number of entries the run put on the event heap
    #: (:attr:`Environment.events_scheduled`): the simulator's own work
    #: count, free of host noise.
    events_scheduled: int = 0

    # ------------------------------------------------------------------
    # Convergence analysis
    # ------------------------------------------------------------------
    def loss_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """All per-iteration training losses, merged and time-sorted
        (:meth:`Ledger.loss_series`)."""
        return self.ledger.loss_series()

    def smoothed_loss_series(
        self, window: int = 32
    ) -> Tuple[np.ndarray, np.ndarray]:
        times, losses = self.loss_series()
        return times, smooth_series(losses, window)

    def loss_vs_steps(self, window: int = 32) -> Tuple[np.ndarray, np.ndarray]:
        """Mean loss per global step index (Figure 15's x-axis)."""
        _, losses = self.loss_series()
        return np.arange(losses.size), smooth_series(losses, window)

    def time_to_loss(self, target: float, window: int = 32) -> float:
        """First time the smoothed training loss reaches ``target``."""
        times, losses = self.smoothed_loss_series(window)
        below = np.nonzero(losses <= target)[0]
        if below.size == 0:
            return float("inf")
        return float(times[below[0]])

    def iteration_rate(self) -> float:
        """Aggregate completed iterations per simulated second."""
        total = sum(self.iterations_completed)
        if self.wall_time <= 0:
            return 0.0
        return total / self.wall_time

    def mean_iteration_duration(self) -> float:
        """Average per-iteration wall time across workers."""
        durations = [
            stats["iteration_duration_mean"] for stats in self.worker_stats
        ]
        return float(np.mean(durations)) if durations else 0.0

    def summary(self) -> str:
        lines = [
            f"protocol={self.protocol} ({self.config_description})",
            f"topology={self.topology_name} workers={self.n_workers}",
            f"wall_time={self.wall_time:.3f}s "
            f"rate={self.iteration_rate():.2f} iter/s",
            f"max_gap={self.gap.max_observed():g} "
            f"messages={self.messages_sent}",
        ]
        if self.final_loss is not None:
            lines.append(
                f"final_loss={self.final_loss:.4f} "
                f"final_accuracy={self.final_accuracy:.3f}"
            )
        if self.fault_events:
            summarized = ", ".join(
                f"{event['kind']} w{event['worker']}@{event['iteration']}"
                for event in self.fault_events
            )
            lines.append(f"faults: {summarized}")
        if self.messages_dropped:
            lines.append(f"messages_dropped={self.messages_dropped}")
        if self.membership_events:
            transitions = [
                f"{event['kind']} w{event['worker']}@{event['iteration']}"
                for event in self.membership_events
                if event["kind"] != "rewire"
            ]
            epochs = max(event["epoch"] for event in self.membership_events)
            lines.append(
                f"membership: {', '.join(transitions)} "
                f"({epochs} rewire epoch(s))"
            )
        return "\n".join(lines)


@dataclass
class ProtocolRuntime:
    """Per-run mutable state shared between the base class and workers.

    Created fresh at the top of :meth:`ProtocolCluster.run`; protocol
    processes record progress here (``done``, message counters) and the
    base class packages it into the :class:`TrainingRun`.
    """

    env: Environment
    #: The run's first model: ``models[0]`` on the eager plane, the
    #: only one when the run replays.
    model: object
    #: One replica per worker, empty when the run replays (its workers
    #: are rows of one block under ``model``'s kernel).
    models: List[object]
    n_workers: int
    update_size: float
    done: np.ndarray
    #: ``[messages_sent, bytes_sent]`` — plain list so simulated
    #: processes can mutate it in place.
    traffic: List[float] = field(default_factory=lambda: [0, 0.0])
    #: The run's ledger: every iteration body records its phase
    #: boundaries and loss here (:meth:`Ledger.record`).
    ledger: Ledger = field(default_factory=Ledger)

    @cached_property
    def compute(self) -> ComputePool:
        """The run's compute seam: every protocol submits a worker's
        gradient here before its compute timeout and reads the ticket
        after it (:mod:`repro.ml.compute`)."""
        return ComputePool(self.models, self.model)

    @property
    def replays(self) -> bool:
        """Whether the run records its dependencies and replays the math
        (:meth:`ProtocolCluster._replays`)."""
        return not self.models

    def count_traffic(self, messages: int, bytes_sent: float) -> None:
        """Record protocol traffic (used when no Network object exists)."""
        self.traffic[0] += messages
        self.traffic[1] += bytes_sent


class ProtocolCluster:
    """Base class for build-and-run training deployments.

    Owns everything protocols share — deterministic model replication,
    per-worker data streams, final-model evaluation, worker statistics
    and :class:`TrainingRun` packaging — so a concrete protocol only
    implements its coordination logic.

    Args:
        n_workers: Number of model replicas / simulated workers.
        model_factory: ``f(rng) -> Model``; called with identically
            seeded streams so all replicas start from the same
            parameters (the paper's shared ``p0``): once per worker on
            the eager plane, twice when the run replays (its one model
            and a witness that the factory is deterministic).
        dataset: Train/test data; every worker samples the full training
            split with its own RNG stream.
        optimizer: SGD prototype; cloned per worker on the eager plane
            (worker-local state); a replaying run steps every row with
            the prototype itself.
        batch_size: Minibatch size per worker per iteration.
        compute_model: Per-iteration compute-time oracle (heterogeneity
            lives here).
        max_iter: Iterations per worker.
        seed: Master seed for all randomness.
        update_size: Message size of one parameter update; derived from
            the model dimension when omitted.
        evaluate: Whether to evaluate the averaged final model on the
            test split.
        compression: Optional
            :class:`~repro.compression.CompressionSpec`.  When set,
            each worker compresses its outgoing updates through a
            per-(worker, stream) error-feedback compressor
            (:meth:`_stream_compressor`) and every send is priced at
            the compressed wire size (:meth:`_wire_size`).  ``None``
            keeps the dense fast path bit-identically.
        churn: Optional :class:`~repro.membership.ChurnPlan`, normalized
            once here: clipped to the run horizon and validated, and
            ``None`` when nothing in it can happen.  ``self.churn is
            None`` is a static run.

    Subclass contract:

    * :meth:`_replays` — whether a run on this model records its
      dependencies and replays the math (default: never).
    * :meth:`_start` — build protocol state and spawn processes; every
      worker must set ``runtime.done[wid] = True`` when it finishes.
      Under a churn plan it builds the run's membership with
      :meth:`_membership_runtime`; a worker process that is one round
      after another runs them through :meth:`_member_loop`, which is
      the plain ``for k`` loop when there is no plan.
    * :meth:`_config_description` / :meth:`_topology_name` — labels for
      reports.
    * :meth:`_final_param_stack` — per-worker final parameter matrix
      (single-row for centralized protocols).
    * Every iteration body draws a stamp, ``next(runtime.ledger.order)``,
      as it begins, and ends with one ``runtime.ledger.record`` call
      (:class:`~repro.sim.trace.Ledger`) of the stamp and its loss,
      timed at the :attr:`loss_at` column; ``worker_stats``, the loss
      series and the gaps are derived from the ledger.
    * Optional overrides: :meth:`_message_totals`, :meth:`_byte_stats`,
      :meth:`_worker_extras`, :attr:`gate_stat`, :meth:`_iterations_completed`,
      :meth:`_iterations_skipped`, :meth:`_messages_dropped`,
      :meth:`_check_complete`, :meth:`_after_simulation`, and the join
      re-sync (:meth:`_resync_joiner`, :meth:`_resync_payload`).
    """

    #: Registry name reported in :attr:`TrainingRun.protocol`;
    #: subclasses override (or set per-instance for multi-mode
    #: protocols like the parameter server).
    protocol: str = "abstract"

    #: Private test override: run a replayable spec on the eager plane.
    _eager = False

    #: The ``worker_stats`` key of a worker's mean ledger ``gate`` time.
    gate_stat = "gate_wait_mean"

    #: The ledger column an iteration's loss is timed at in the run's
    #: loss series.
    loss_at = "end"

    #: Whether ``worker_stats`` carry each worker's ``loss_mean``.
    loss_mean = False

    def __init__(
        self,
        n_workers: int,
        model_factory: Callable[[np.random.Generator], object],
        dataset: Dataset,
        optimizer: Optional[SGD] = None,
        batch_size: int = 32,
        compute_model: Optional[ComputeModel] = None,
        max_iter: int = 100,
        seed: int = 0,
        update_size: Optional[float] = None,
        evaluate: bool = True,
        compression=None,
        churn=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.n_workers = n_workers
        self.model_factory = model_factory
        self.dataset = dataset
        self.optimizer_proto = optimizer or SGD(lr=0.1, momentum=0.9)
        self.batch_size = batch_size
        self.max_iter = max_iter
        self.seed = seed
        self.streams = RngStreams(seed)
        self.compute_model = compute_model or ComputeModel(
            base_time=0.1, n_workers=n_workers
        )
        self._update_size = update_size
        self.evaluate = evaluate
        if compression is not None and compression.name == "none":
            # CompressionSpec("none") IS the dense path: normalizing
            # here keeps every `if self.compression is None` branch —
            # and therefore bitwise behavior — identical to no spec.
            compression = None
        self.compression = compression
        #: Per-(worker, stream) compressor instances; built lazily so
        #: the model dim/dtype are known (see :meth:`_stream_compressor`).
        self._compressors: Dict[tuple, object] = {}
        self._wire_ratio_cached: Optional[float] = None
        if churn is not None and not churn.empty:
            churn = churn.clipped(max_iter)
            churn.validate_for(n_workers)
        self.churn = churn if churn is not None and not churn.empty else None
        #: The latest run's membership runtime (``None`` when static).
        self._membership = None
        #: The latest :meth:`run`'s runtime (its compute-pool counters
        #: are observability that never enters the ``TrainingRun``).
        self.runtime: Optional[ProtocolRuntime] = None
        #: The latest run's :class:`~repro.core.planes.Record`, or
        #: ``None`` when it did its arithmetic in the loop
        #: (:func:`~repro.core.planes.replayable`; hop, NOTIFY-ACK and
        #: the parameter server record).
        self.record = None

    # ------------------------------------------------------------------
    # Construction helpers (shared by every protocol)
    # ------------------------------------------------------------------
    def _new_model(self):
        # Same derived stream -> identical initialization (p0).
        return self.model_factory(self.streams.fresh("model-init"))

    def _build_models(self, first=None) -> List[object]:
        """One model replica per worker, all starting from the same p0;
        ``first``, when given, is replica 0."""
        models = [first if first is not None else self._new_model()]
        models.extend(self._new_model() for _ in range(1, self.n_workers))
        for model in models[1:]:
            self._check_same_start(models[0], model)
        return models

    @staticmethod
    def _check_same_start(reference, model) -> None:
        p0, params = reference.get_params(), model.get_params()
        # Bitwise equality is the expected case and the cheap test;
        # allclose only decides replicas that differ.
        if not np.array_equal(params, p0) and not np.allclose(params, p0):
            raise ValueError(
                "model_factory must be deterministic given its rng; "
                "worker replicas started from different parameters"
            )

    def _make_batcher(self, wid: int) -> Batcher:
        """Worker ``wid``'s private minibatch stream, built at its first
        draw and owned by the batcher (each run starts it at the key)."""
        return Batcher(
            self.dataset.x_train,
            self.dataset.y_train,
            self.batch_size,
            self.streams.seed_of("data", wid),
        )

    def _resolve_update_size(self, model) -> float:
        if self._update_size is not None:
            return self._update_size
        return params_message_size(model.dim)

    # ------------------------------------------------------------------
    # Compression plane (shared by every protocol)
    # ------------------------------------------------------------------
    def _stream_compressor(
        self, runtime: ProtocolRuntime, wid: int, stream: str = "params"
    ):
        """The (worker, stream) error-feedback compressor, or ``None``.

        One instance per logical vector stream: residual/reference
        state must never be shared across workers, and a protocol that
        ships two distinct vectors (momentum-tracking's momentum
        buffer) uses a second stream.  Seeded schemes derive their rng
        from ``(experiment seed, wid, stream)`` so same-seed runs
        replay bit-identically.
        """
        if self.compression is None:
            return None
        key = (wid, stream)
        compressor = self._compressors.get(key)
        if compressor is None:
            from repro.compression import build_compressor

            reference = runtime.model.get_params()
            compressor = build_compressor(
                self.compression,
                dim=reference.size,
                dtype=reference.dtype,
                seed=[self.seed, wid, *stream.encode()],
            )
            self._compressors[key] = compressor
        return compressor

    def _wire_ratio(self, runtime: ProtocolRuntime) -> float:
        """Compressed-over-dense byte ratio of one update (1.0 dense)."""
        if self.compression is None:
            return 1.0
        if self._wire_ratio_cached is None:
            # The ratio is a pure function of dim/dtype/knobs, so any
            # worker's instance reports it; worker 0's params stream
            # exists in every compressed protocol.
            self._wire_ratio_cached = self._stream_compressor(
                runtime, 0
            ).wire_ratio()
        return self._wire_ratio_cached

    def _wire_size(
        self, runtime: ProtocolRuntime, vectors: float = 1.0
    ) -> float:
        """Wire size of one update message — the shared pricing path.

        Every protocol's send path routes through this (and so through
        :func:`repro.net.message.payload_bytes`); with no compression
        and one vector the result is bitwise ``update_size``.
        """
        return payload_bytes(
            runtime.update_size, self._wire_ratio(runtime), vectors
        )

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _replays(self, model) -> bool:
        """Whether a run on ``model`` records its dependencies and replays
        the math (:func:`~repro.core.planes.replayable`).  Decided before
        any replica exists: a replaying run builds only ``model``."""
        return False

    def _start(self, runtime: ProtocolRuntime) -> None:
        """Build coordination state and spawn all simulated processes."""
        raise NotImplementedError

    def _config_description(self) -> str:
        """Human-readable configuration summary for reports."""
        raise NotImplementedError

    def _topology_name(self) -> str:
        """Communication-shape label for reports."""
        raise NotImplementedError

    def _final_param_stack(self, runtime: ProtocolRuntime) -> np.ndarray:
        """``(n_replicas, dim)`` final parameters (may be single-row)."""
        raise NotImplementedError

    def _check_complete(self, runtime: ProtocolRuntime) -> None:
        """Raise :class:`DeadlockError` unless every worker finished."""
        if not runtime.done.all():
            stuck = [int(w) for w in np.nonzero(~runtime.done)[0]]
            raise DeadlockError(
                f"{self.protocol}: {len(stuck)} workers never finished "
                f"(wids {stuck}). This indicates a protocol deadlock or "
                "an unsatisfiable advance condition.",
                stuck=stuck,
            )

    def _after_simulation(self, runtime: ProtocolRuntime) -> None:
        """Finish what the simulation deferred, before any result is
        read (a recorded run replays its arithmetic here)."""

    def _message_totals(self, runtime: ProtocolRuntime) -> Tuple[int, float]:
        """``(messages_sent, bytes_sent)`` for the whole run."""
        return int(runtime.traffic[0]), float(runtime.traffic[1])

    def _byte_stats(
        self, runtime: ProtocolRuntime, bytes_sent: float
    ) -> Dict[str, float]:
        """The byte-accounting split beyond delivered payload bytes.

        Protocols that track traffic analytically (or through
        :meth:`ProtocolRuntime.count_traffic`) count only realized
        exchanges, so everything is delivered and ``bytes_attempted``
        collapses onto ``bytes_sent``.  Network-backed clusters
        override this with the fabric's real counters.
        """
        return {
            "bytes_dropped": 0.0,
            "control_bytes": 0.0,
            "bytes_retransmitted": 0.0,
            "bytes_attempted": bytes_sent,
        }

    def _messages_dropped(self, runtime: ProtocolRuntime) -> int:
        """In-flight messages the membership dropped at departed
        members (protocols with a Network override this)."""
        membership = self._membership
        return membership.messages_dropped if membership is not None else 0

    def _collect_membership_events(self, runtime: ProtocolRuntime) -> List[dict]:
        """Join/leave/rewire records from the membership runtime."""
        membership = self._membership
        return list(membership.events) if membership is not None else []

    # ------------------------------------------------------------------
    # The membership lifecycle (shared by every elastic protocol)
    # ------------------------------------------------------------------
    def _membership_runtime(
        self,
        runtime: ProtocolRuntime,
        nominal,
        runtime_class=None,
        auto_join_triggers: bool = True,
        **kwargs,
    ):
        """Found this run's membership over the ``nominal`` graph.

        ``runtime_class`` defaults to
        :class:`~repro.membership.MembershipRuntime` (a protocol whose
        fabric reacts to transitions passes a subclass, with its extra
        constructor arguments in ``kwargs``).  Lockstep protocols that
        key joins to their own round clock pass ``auto_join_triggers=
        False``.  Only called when :attr:`churn` is set.
        """
        from repro.membership import MembershipRuntime, MembershipView

        plan = self.churn
        view = MembershipView.founding(
            nominal, absent=plan.initially_absent(), policy=plan.policy
        )
        self._membership = (runtime_class or MembershipRuntime)(
            runtime.env,
            view,
            plan,
            self.max_iter,
            ledger=runtime.ledger,
            auto_join_triggers=auto_join_triggers,
            **kwargs,
        )
        return self._membership

    def _member_loop(self, runtime: ProtocolRuntime, wid: int, round_at, resync):
        """Generator: worker ``wid``'s rounds, under the churn plan if any.

        ``round_at(k)`` returns the generator of round ``k``; it is
        called before the membership hears of the iteration (a join
        trigger that report fires cannot change what the round already
        resolved) and run after.  ``resync()`` returns the generator a
        (re)joiner runs before its first round.  With no plan this is
        the plain ``for k`` loop; under one it adds the lifecycle: a
        late joiner waits dark for its join, a leaver departs at the top
        of its scripted iteration and, on a cycle, waits to rejoin.
        """
        membership = self._membership
        if membership is None:
            for k in range(self.max_iter):
                yield from round_at(k)
            self._retire(runtime, wid)
            return
        env = runtime.env
        leave = membership.leave_event(wid)
        k = 0
        if not membership.is_active(wid):
            k = yield membership.rejoin_event(wid)
            if k is None:  # the join falls past the horizon
                self._retire(runtime, wid)
                return
            yield from resync()
        while k < self.max_iter:
            if (
                leave is not None
                and k >= leave.leave_at
                and membership.is_active(wid)
            ):
                membership.enact_leave(wid, env.now, k)
                if leave.join_at is None:
                    self._retire(runtime, wid)
                    return
                k = yield membership.rejoin_event(wid)
                if k is None:
                    self._retire(runtime, wid)
                    return
                yield from resync()
                leave = None  # the cycle is spent
                continue
            round_k = round_at(k)
            membership.on_iteration(wid, k, env.now)
            yield from round_k
            k += 1
        self._retire(runtime, wid)

    def _retire(self, runtime: ProtocolRuntime, wid: int) -> None:
        """Worker ``wid``'s process is over (every exit of
        :meth:`_member_loop`)."""
        runtime.done[wid] = True

    def _resync_joiner(
        self, params: Dict[int, np.ndarray], wid: int, active
    ) -> Optional[int]:
        """Default join lifecycle: copy params from the lowest-id live
        member (the sponsor).  Returns the sponsor, or ``None`` when no
        other member exists (the joiner keeps its own state)."""
        sponsors = [w for w in sorted(active) if w != wid]
        if not sponsors:
            return None
        params[wid] = params[sponsors[0]].copy()
        return sponsors[0]

    def _resync_payload(self, update_size: float) -> float:
        """Bytes a joiner's re-sync transfers (protocols may enlarge)."""
        return update_size

    def _join_resync(
        self, runtime: ProtocolRuntime, wid: int, params: Dict[int, np.ndarray]
    ):
        """Generator: the default "re-sync params from neighbors" join
        step for elastic protocols with a params dict and a link model —
        copy the sponsor's parameters, paying one payload round trip."""
        sponsor = self._resync_joiner(
            params, wid, self._membership.view.active
        )
        if sponsor is not None:
            payload = self._resync_payload(runtime.update_size)
            yield runtime.env.timeout(
                self.links.round_trip(sponsor, wid, payload)
            )
            runtime.count_traffic(2, payload)

    def _iterations_completed(self, runtime: ProtocolRuntime) -> List[int]:
        """One past each worker's last iteration in the ledger."""
        last = runtime.ledger.column("iteration", self.n_workers)
        return (np.fmax.reduce(last, axis=1, initial=-1.0) + 1).astype(int).tolist()

    def _iterations_skipped(self, runtime: ProtocolRuntime) -> List[int]:
        return [0] * self.n_workers

    def _worker_extras(
        self, runtime: ProtocolRuntime
    ) -> Optional[List[dict]]:
        """A protocol's own ``worker_stats`` keys, by worker (see
        :meth:`~repro.sim.trace.Ledger.worker_stats`)."""
        return None

    # ------------------------------------------------------------------
    # The shared run loop
    # ------------------------------------------------------------------
    def run(self) -> TrainingRun:
        """Build the deployment, simulate it, and package the results."""
        # Imported here, not at module scope: repro.core.cluster subclasses
        # ProtocolCluster, so importing repro.core while this module loads
        # would close an import cycle.
        from repro.core.gap import ObservedGaps

        env = Environment()
        # Time-varying link models (scenario link flaps) need the
        # simulated clock; bind it before any process consults a link.
        links = getattr(self, "links", None)
        if callable(getattr(links, "bind_clock", None)):
            links.bind_clock(lambda: env.now)
        model = self._new_model()
        if not self._eager and self._replays(model):
            # No replica: a witness still rejects a factory that is not
            # deterministic, as the replicas' comparison would.
            self._check_same_start(model, self._new_model())
            models = []
        else:
            models = self._build_models(model)
        runtime = ProtocolRuntime(
            env=env,
            model=model,
            models=models,
            n_workers=self.n_workers,
            update_size=self._resolve_update_size(model),
            done=np.zeros(self.n_workers, dtype=bool),
            ledger=Ledger(self.loss_at),
        )
        self.runtime = runtime
        # Error-feedback residuals belong to one run.
        self._compressors = {}
        self._start(runtime)
        env.run()
        self._check_complete(runtime)
        self._after_simulation(runtime)

        final_stack = np.atleast_2d(self._final_param_stack(runtime))
        final_params = final_stack.mean(axis=0)
        final_loss = final_accuracy = None
        if self.evaluate:
            model.set_params(final_params)
            final_loss, final_accuracy = model.evaluate(
                self.dataset.x_test, self.dataset.y_test
            )

        messages_sent, bytes_sent = self._message_totals(runtime)
        byte_stats = self._byte_stats(runtime, bytes_sent)
        gap = ObservedGaps(self.n_workers, *runtime.ledger.transitions())
        return TrainingRun(
            protocol=self.protocol,
            config_description=self._config_description(),
            topology_name=self._topology_name(),
            n_workers=self.n_workers,
            max_iter=self.max_iter,
            wall_time=env.now,
            gap=gap,
            iterations_completed=self._iterations_completed(runtime),
            iterations_skipped=self._iterations_skipped(runtime),
            messages_sent=messages_sent,
            bytes_sent=bytes_sent,
            final_params=final_params,
            final_loss=final_loss,
            final_accuracy=final_accuracy,
            consensus=consensus_distance(final_stack),
            worker_stats=runtime.ledger.worker_stats(
                self._iterations_completed(runtime),
                self.gate_stat,
                self._worker_extras(runtime),
                self.loss_mean,
            ),
            ledger=runtime.ledger,
            fault_events=runtime.ledger.fault_events(),
            messages_dropped=self._messages_dropped(runtime),
            membership_events=self._collect_membership_events(runtime),
            events_scheduled=env.events_scheduled,
            **byte_stats,
        )
