"""Runtime membership managers: enacting churn plans inside a run.

:class:`MembershipRuntime` owns the live :class:`MembershipView`
during a simulation: it watches worker iteration reports, fires the
plan's join triggers, applies leave/join transitions through the
configured :class:`~repro.membership.policies.RewirePolicy`, and
records every join/leave/rewire as a membership event (the list
surfaced as :attr:`~repro.protocols.base.TrainingRun.membership_events`).
Gossip-style protocols (AD-PSGD, partial all-reduce) use it directly;
Hop needs the queue fabric repaired too and uses the
:class:`HopMembership` subclass, which additionally

* stamps *activation iterations* onto repair/join edges so senders and
  receivers agree, per edge, on the first iteration whose updates flow
  across it (no worker ever blocks on an update that predates the
  edge),
* closes token queues owned by departed workers (blocked consumers are
  released; the gap bound through a gone worker is vacuous),
* creates token queues for new edges with the Section 4.2 invariant
  re-established from the endpoints' current iterations,
* re-resolves bounded update-queue capacities against the repaired
  graph, and
* pushes the new neighbor bindings into every live worker and repairs
  their *pending* blocking receives (requests that counted a departed
  in-neighbor are re-counted; per-sender staleness waits on a departed
  sender are released).

NOTIFY-ACK's ACK channels are the same per-edge token queues;
:class:`NotifyAckMembership` differs only in priming an added edge's
channel with one token.

All enactments happen inside simulated processes, so churn runs stay
bit-deterministic like everything else in the engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.membership.plan import ChurnEvent, ChurnPlan
from repro.membership.policies import get_rewire_policy
from repro.membership.view import MembershipView, RewireReport
from repro.sim.trace import DEPARTED

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.engine import Environment
    from repro.sim.events import Event
    from repro.sim.trace import Ledger


class MembershipError(RuntimeError):
    """An unenactable membership transition (e.g. quorum loss)."""


class MembershipRuntime:
    """Live membership state shared by one elastic cluster run.

    Args:
        env: Simulation environment (rejoin events live here).
        view: The founding :class:`MembershipView`.
        plan: The scripted churn timeline (already horizon-clipped).
        max_iter: Run horizon; joins that would start at or past it are
            skipped.
        ledger: The run's :class:`~repro.sim.trace.Ledger`, where each
            join and leave moves the member's iteration counter.
        auto_join_triggers: Fire the plan's join triggers from
            :meth:`on_iteration` (asynchronous protocols).  Lockstep
            protocols that key joins to round numbers pass ``False``
            and call :meth:`enact_join` themselves.
    """

    def __init__(
        self,
        env: "Environment",
        view: MembershipView,
        plan: ChurnPlan,
        max_iter: int,
        ledger: "Ledger",
        auto_join_triggers: bool = True,
    ) -> None:
        self.env = env
        self.view = view
        self.plan = plan
        self.max_iter = max_iter
        self.ledger = ledger
        self.policy = get_rewire_policy(plan.policy)
        #: Time-ordered join/leave/rewire records (membership_events).
        self.events: List[dict] = []
        #: In-flight messages to departed workers, counted by Network.
        self.messages_dropped = 0
        self._leave_events = plan.leave_map()
        self._pending_joins: List[Tuple[int, int]] = (
            list(plan.join_triggers()) if auto_join_triggers else []
        )
        self._deferred_joins: Set[int] = set()
        self._rejoin_events: Dict[int, "Event"] = {}
        #: Last iteration reported per worker (the membership frontier).
        self.iterations: Dict[int, int] = {}
        for worker in range(view.n):
            if not view.is_active(worker):
                ledger.move(worker, DEPARTED)
        # Joins at or past the horizon can never fire from an
        # iteration report (the frontier tops out at max_iter - 1):
        # resolve their waits up front so the scripted worker stays
        # absent for the whole run instead of hanging dark.
        for trigger, joiner in list(self._pending_joins):
            if trigger >= max_iter:
                self._pending_joins.remove((trigger, joiner))
                if not self.view.is_active(joiner):
                    self.rejoin_event(joiner).succeed(None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.view.epoch

    def is_active(self, worker: int) -> bool:
        return self.view.is_active(worker)

    def leave_event(self, worker: int) -> Optional[ChurnEvent]:
        """The scripted leave for ``worker``, if any."""
        return self._leave_events.get(worker)

    def frontier(self) -> int:
        """Highest iteration any active member has reported."""
        reported = [
            k for w, k in self.iterations.items() if self.view.is_active(w)
        ]
        return max(reported, default=0)

    def rejoin_event(self, worker: int) -> "Event":
        """The event a dark worker blocks on until its join is enacted.

        Succeeds with the worker's start iteration, or ``None`` when
        the join falls past the run horizon.
        """
        event = self._rejoin_events.get(worker)
        if event is None:
            event = self._rejoin_events[worker] = self.env.event()
        return event

    # ------------------------------------------------------------------
    # Enactment
    # ------------------------------------------------------------------
    def on_iteration(self, worker: int, iteration: int, now: float) -> None:
        """Iteration-top report; fires join triggers the frontier passed."""
        self.iterations[worker] = iteration
        while self._pending_joins and self._pending_joins[0][0] <= iteration:
            _, joiner = self._pending_joins.pop(0)
            if self.view.is_active(joiner):
                # The cycle's rejoin trigger fired before the (slow)
                # worker reached its own leave iteration; enact the
                # join right after the leave instead.
                self._deferred_joins.add(joiner)
                continue
            self.enact_join(joiner, now)

    def enact_leave(self, worker: int, now: float, iteration: int) -> None:
        """Remove ``worker`` from the membership and repair the graph."""
        if not self.view.is_active(worker):
            return
        if len(self.view.active) <= 2:
            raise MembershipError(
                f"cannot enact leave of worker {worker}: only "
                f"{len(self.view.active)} active workers remain"
            )
        self.iterations.pop(worker, None)
        old_view = self.view
        self.view, report = old_view.leave(worker, self.policy)
        self._record("leave", worker, now, iteration, report)
        self.ledger.move(worker, DEPARTED)
        self._apply(report, departed=frozenset({worker}))
        if worker in self._deferred_joins:
            self._deferred_joins.discard(worker)
            self.enact_join(worker, now)

    def enact_join(self, worker: int, now: float, start: Optional[int] = None) -> None:
        """Wire ``worker`` (back) into the membership.

        ``start`` is the iteration the joiner resumes at; by default
        two past the frontier, so every live worker passes an iteration
        top (and rebinds to the new graph) strictly before any update
        for the joiner's iterations is due.
        """
        if self.view.is_active(worker):
            return
        if start is None:
            start = self.frontier() + 2
        if start >= self.max_iter:
            # Too late to participate: leave the graph untouched.
            self.rejoin_event(worker).succeed(None)
            return
        self.iterations[worker] = start
        self.view, report = self.view.join(worker, self.policy)
        self._record("join", worker, now, start, report)
        self.ledger.move(worker, start)
        self._apply(report, start_iteration=start)
        self.rejoin_event(worker).succeed(start)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _apply(
        self,
        report: RewireReport,
        departed: frozenset = frozenset(),
        start_iteration: Optional[int] = None,
    ) -> None:
        """Propagate a transition into the protocol fabric (subclass)."""

    def _record(
        self,
        kind: str,
        worker: int,
        now: float,
        iteration: int,
        report: RewireReport,
    ) -> None:
        self.events.append(
            {
                "kind": kind,
                "worker": worker,
                "time": float(now),
                "iteration": int(iteration),
                "epoch": int(report.epoch),
            }
        )
        self.events.append(
            {
                "kind": "rewire",
                "worker": worker,
                "time": float(now),
                "iteration": int(iteration),
                "epoch": int(report.epoch),
                "edges_added": len(report.edges_added),
                "edges_removed": len(report.edges_removed),
                "rewire_cost": report.rewire_cost,
                "spectral_gap": float(report.spectral_gap),
                "n_active": report.n_active,
            }
        )

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} epoch={self.epoch} "
            f"active={len(self.view.active)}/{self.view.n} "
            f"events={len(self.events)}>"
        )


class HopMembership(MembershipRuntime):
    """Membership runtime that also repairs Hop's queue fabric.

    Args:
        state: The hop :class:`~repro.core.worker.ClusterState`.
        config: The run's :class:`~repro.core.config.HopConfig`.
        update_queues: ``wid -> UpdateQueue`` (all ids, dark included).
        token_queues: Live ``(owner, consumer) -> TokenQueue`` map; new
            edges get queues added here (workers re-resolve their
            provider/consumer lists at epoch boundaries).
    """

    def __init__(
        self,
        env: "Environment",
        view: MembershipView,
        plan: ChurnPlan,
        max_iter: int,
        *,
        state,
        config,
        update_queues,
        token_queues,
        ledger: "Ledger",
    ) -> None:
        super().__init__(env, view, plan, max_iter, ledger)
        self.state = state
        self.config = config
        self.update_queues = update_queues
        self.token_queues = token_queues
        #: ``wid -> HopWorker``; wired by the cluster after construction.
        self.workers: Dict[int, object] = {}
        #: First iteration whose updates flow across a repair/join edge.
        self.activation: Dict[Tuple[int, int], int] = {}

    def edge_activation(self, src: int, dst: int) -> int:
        return self.activation.get((src, dst), 0)

    def _iteration_of(self, worker: int) -> int:
        return self.iterations.get(worker, 0)

    def _initial_tokens(self, src: int, dst: int, joiner: Optional[int]) -> int:
        """Tokens TokenQ(dst -> src) holds when edge ``src -> dst`` is added.

        The Section 4.2 invariant re-established from the endpoints'
        current iterations.  A joiner's reported iteration is where it
        *will* resume; it has not passed that top (and inserted tokens
        for it) yet, so as an owner it counts one lower.
        """
        owner_iteration = self._iteration_of(dst) - (1 if dst == joiner else 0)
        return max(
            0, owner_iteration - self._iteration_of(src) + self.config.max_ig
        )

    def _apply(
        self,
        report: RewireReport,
        departed: frozenset = frozenset(),
        start_iteration: Optional[int] = None,
    ) -> None:
        from repro.core.gap import update_queue_capacity_bound
        from repro.core.queues import TokenQueue

        topology = self.view.topology
        activation = (
            start_iteration
            if start_iteration is not None
            else self.frontier() + 2
        )
        for edge in report.edges_added:
            if edge[0] != edge[1]:
                self.activation[edge] = activation
        for edge in report.edges_removed:
            self.activation.pop(edge, None)

        if self.config.use_token_queues:
            for worker in departed:
                for (owner, _consumer), queue in self.token_queues.items():
                    if owner == worker:
                        queue.close()
            # Edges retired between two *live* workers (a rejoin
            # replacing repair bridges): the owner stops inserting at
            # its next rebind, so a consumer blocked on the dead edge
            # must be released — the gate is vacuous once the edge is
            # gone.
            for src, dst in report.edges_removed:
                if src == dst:
                    continue
                retired = self.token_queues.get((dst, src))
                if retired is not None:
                    retired.close()
            joiner = report.worker if start_iteration is not None else None
            for src, dst in report.edges_added:
                if src == dst:
                    continue
                # Edge src -> dst: dst is in Nout(src), so
                # TokenQ(dst -> src) gates src's progress (Section 4.2).
                key = (dst, src)
                initial = self._initial_tokens(src, dst, joiner)
                existing = self.token_queues.get(key)
                if existing is None:
                    self.token_queues[key] = TokenQueue(
                        self.env, owner=dst, consumer=src, initial=initial
                    )
                else:
                    # Re-established edge: reset to the invariant count
                    # whether the queue was closed (owner departed) or
                    # left open with a stale frozen count (the edge was
                    # retired while both endpoints stayed live).
                    existing.reopen(initial)

        if self.config.bound_update_queues and self.config.use_token_queues:
            for wid in topology.active:
                queue = self.update_queues[wid]
                if getattr(queue, "capacity", None) is not None:
                    queue.resize(
                        update_queue_capacity_bound(
                            topology, wid, self.config.max_ig
                        )
                    )

        for worker in self.workers.values():
            worker.apply_membership(self)
        for wid in topology.active:
            worker = self.workers.get(wid)
            if worker is not None:
                worker.repair_pending_recv(departed)


class NotifyAckMembership(HopMembership):
    """Hop's membership runtime over NOTIFY-ACK's ACK channels.

    The ACK channels are Hop's per-edge token queues, so departures,
    retired edges, activation iterations and worker rebinding are
    repaired exactly as for Hop.  The one rule that differs: an added
    edge's channel is created or re-primed with exactly one token, the
    implicit ACK(-1) that lets the first gated Send through at the
    edge's activation iteration.  Built with
    :data:`~repro.core.config.STANDARD`, which never bounds (and so
    never resizes) update-queue capacities.
    """

    def _initial_tokens(self, src: int, dst: int, joiner: Optional[int]) -> int:
        return 1
