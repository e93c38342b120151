"""Prague-style partial all-reduce [Luo et al., arXiv:1909.08029].

The follow-up to Hop replaces global All-Reduce with *Partial
All-Reduce*: a group generator repeatedly draws small, randomized
worker groups; each group runs one all-reduce among only its members
and moves on.  A straggler then delays just its current group-mates —
never the whole deployment — and the randomized regrouping mixes
parameters across the cluster over time (the paper's *conflict-free
group generation* keeps any worker from being scheduled into two
concurrent groups).

This simulation reproduces that scheme:

* :class:`GroupSchedule` draws one conflict-free partition of the
  workers per training round from a seeded RNG (``static_groups=True``
  freezes the round-0 partition — the ablation knob that removes
  randomized mixing while keeping the group-local barrier).
* :class:`PartialAllReduceCluster` runs one process per worker:
  compute -> local SGD step -> group barrier -> in-group chunked ring
  all-reduce (``2(g-1)`` chunk steps of size ``M/g``).

Registered as protocol ``"partial-allreduce"`` (alias ``"prague"``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ml.optim import SGD
from repro.net.links import LinkModel, uniform_links
from repro.protocols.base import ProtocolCluster, ProtocolRuntime
from repro.protocols.registry import register_protocol, spec_common_kwargs
from repro.sim.engine import Environment
from repro.sim.events import Event


class GroupSchedule:
    """Deterministic, conflict-free group generator.

    Every round ``k`` maps to one *partition* of ``range(n_workers)``
    into groups of (at most) ``group_size`` members, drawn from an RNG
    seeded by ``(seed, k)`` — identical for every worker that asks, and
    conflict-free by construction: a partition cannot place one worker
    in two groups of the same round.

    Args:
        n_workers: Cluster size.
        group_size: Target members per group (the last group of a round
            keeps the remainder and may be smaller).
        seed: Base seed for the per-round draws.
        static: Freeze the round-0 partition for every round (ablation:
            no randomized re-mixing across groups).
        active_of_round: Optional ``k -> sorted member tuple`` derived
            from a churn plan; each round partitions only that round's
            members, so a departed worker can never strand a group
            barrier.  ``None`` (the static case) partitions everyone,
            bit-identically to the pre-membership behavior.
    """

    def __init__(
        self,
        n_workers: int,
        group_size: int,
        seed: int = 0,
        static: bool = False,
        active_of_round=None,
    ) -> None:
        if group_size < 2:
            raise ValueError(f"group_size must be >= 2, got {group_size}")
        if n_workers < 2:
            raise ValueError("partial all-reduce needs >= 2 workers")
        if static and active_of_round is not None:
            raise ValueError(
                "static groups cannot track membership churn (a frozen "
                "partition would strand barriers on departed workers)"
            )
        self.n_workers = n_workers
        self.group_size = min(group_size, n_workers)
        self.seed = seed
        self.static = static
        self.active_of_round = active_of_round
        self._rounds: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
        self._member_index: Dict[int, Dict[int, Tuple[int, ...]]] = {}

    def groups_for_round(self, k: int) -> Tuple[Tuple[int, ...], ...]:
        """The conflict-free partition used in round ``k``."""
        key = 0 if self.static else int(k)
        if key not in self._rounds:
            rng = np.random.default_rng([self.seed, 0x9E3779B9, key])
            size = self.group_size
            if self.active_of_round is None:
                perm = rng.permutation(self.n_workers)
                groups = tuple(
                    tuple(int(w) for w in perm[i : i + size])
                    for i in range(0, self.n_workers, size)
                )
            else:
                # Membership-aware rounds: partition the round's
                # members only (the draw stays seeded by (seed, k), so
                # churn runs are as deterministic as static ones).
                pool = self.active_of_round(key)
                perm = rng.permutation(len(pool))
                groups = tuple(
                    tuple(int(pool[p]) for p in perm[i : i + size])
                    for i in range(0, len(pool), size)
                )
            self._rounds[key] = groups
            self._member_index[key] = {
                wid: group for group in groups for wid in group
            }
        return self._rounds[key]

    def group_of(self, k: int, wid: int) -> Tuple[int, ...]:
        """The group worker ``wid`` joins in round ``k``."""
        self.groups_for_round(k)
        key = 0 if self.static else int(k)
        return self._member_index[key][wid]

    @staticmethod
    def validate_partition(
        groups: Tuple[Tuple[int, ...], ...],
        n_workers: int,
        members=None,
    ) -> None:
        """Raise if ``groups`` is not a conflict-free partition.

        ``members`` defaults to every worker; membership-aware rounds
        pass the round's member set instead.
        """
        expected = set(range(n_workers)) if members is None else set(members)
        seen: List[int] = [w for group in groups for w in group]
        if len(seen) != len(set(seen)):
            raise ValueError(f"worker scheduled into two groups: {groups}")
        if set(seen) != expected:
            raise ValueError(
                f"groups {groups} do not cover the {len(expected)} members"
            )


class _GroupBarrier:
    """Arrival barrier for one (round, group) partial all-reduce."""

    __slots__ = ("event", "arrived")

    def __init__(self, env: Environment) -> None:
        self.event = Event(env)
        self.arrived = 0


class PartialAllReduceCluster(ProtocolCluster):
    """Randomized partial all-reduce training (Prague).

    Args:
        n_workers: Cluster size.
        group_size: Members per partial all-reduce group.
        static_groups: Ablation — keep the round-0 partition forever.
        links: Link timing for the in-group rings.
        Remaining arguments: see
            :class:`~repro.protocols.base.ProtocolCluster`.
    """

    protocol = "partial-allreduce"
    elastic = True

    def __init__(
        self,
        n_workers: int,
        model_factory,
        dataset,
        optimizer: Optional[SGD] = None,
        group_size: int = 4,
        static_groups: bool = False,
        links: Optional[LinkModel] = None,
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
        self.links = links or uniform_links()
        if churn is not None and churn.empty:
            churn = None
        if churn is not None:
            if static_groups:
                raise ValueError(
                    "membership churn needs randomized regrouping; drop "
                    "static_groups"
                )
            churn = churn.clipped(max_iter)
            churn.validate_for(n_workers)
            if churn.empty:
                churn = None
        self.churn = churn
        #: Nominal communication graph (membership-event reporting
        #: only: partial all-reduce's real shape is its groups).
        self.topology = topology
        self._membership = None
        active_of_round = None
        if churn is not None:
            plan = churn

            def active_of_round(k: int) -> Tuple[int, ...]:
                return tuple(
                    w for w in range(n_workers) if plan.active_at(w, k)
                )

        self.schedule = GroupSchedule(
            n_workers,
            group_size,
            seed=seed,
            static=static_groups,
            active_of_round=active_of_round,
        )

    def group_comm_time(
        self, group: Tuple[int, ...], update_size: float
    ) -> float:
        """Chunked ring all-reduce time among ``group`` members."""
        g = len(group)
        if g < 2:
            return 0.0
        chunk = update_size / g
        slowest_hop = max(
            self.links.transfer_time(group[i], group[(i + 1) % g], chunk)
            for i in range(g)
        )
        return 2 * (g - 1) * slowest_hop

    # ------------------------------------------------------------------
    # Worker process
    # ------------------------------------------------------------------
    def _round_started(self, env: Environment, k: int) -> Event:
        """Event that fires when any member starts round ``k``."""
        event = self._round_events.get(k)
        if event is None:
            event = self._round_events[k] = Event(env)
        return event

    def _mark_round_started(self, env: Environment, k: int) -> None:
        event = self._round_events.get(k)
        if event is None:
            event = self._round_events[k] = Event(env)
        if not event.triggered:
            event.succeed()

    def _round(
        self,
        wid: int,
        k: int,
        runtime: ProtocolRuntime,
        params: Dict[int, np.ndarray],
        barriers: Dict[Tuple[int, Tuple[int, ...]], _GroupBarrier],
        model,
        optimizer: SGD,
        batcher,
    ):
        """Generator: one round — compute, local step, group barrier,
        in-group all-reduce (shared by the static and elastic loops,
        so the two can never drift apart)."""
        env = runtime.env
        start = env.now
        runtime.gap.record(wid, k)
        model.set_params(params[wid])
        ticket = runtime.compute.submit(model, batcher)
        yield env.timeout(self.compute_model.duration(wid, k))
        loss, grad = ticket.result()
        params[wid] = params[wid] + optimizer.step(params[wid], grad, k)

        group = self.schedule.group_of(k, wid)
        if len(group) > 1:
            barrier = barriers.setdefault((k, group), _GroupBarrier(env))
            barrier.arrived += 1
            if barrier.arrived == len(group):
                # Last member in: perform the group's all-reduce.
                compressors = self._group_compressors
                if compressors[group[0]] is None:
                    mean = np.mean([params[m] for m in group], axis=0)
                    for member in group:
                        params[member] = mean.copy()
                else:
                    # CHOCO-style compressed group reduce: each member
                    # broadcasts its reference delta; everyone steps
                    # toward the mean of the *reconstructions*, keeping
                    # its own compression error local.
                    recons = {
                        m: compressors[m].encode_state(params[m])[1]
                        for m in group
                    }
                    mean = np.mean([recons[m] for m in group], axis=0)
                    for member in group:
                        params[member] = params[member] + (
                            mean - recons[member]
                        )
                g = len(group)
                runtime.count_traffic(
                    2 * (g - 1) * g,
                    2.0 * (g - 1) * self._wire_size(runtime),
                )
                barrier.event.succeed()
            yield barrier.event
            yield env.timeout(
                self.group_comm_time(group, self._wire_size(runtime))
            )

        runtime.log_loss[wid](env.now, loss)
        runtime.log_duration[wid](env.now, env.now - start)

    def _worker_elastic(
        self,
        wid: int,
        runtime: ProtocolRuntime,
        params: Dict[int, np.ndarray],
        barriers: Dict[Tuple[int, Tuple[int, ...]], _GroupBarrier],
        model,
        optimizer: SGD,
        batcher,
    ):
        """The partial all-reduce loop under membership churn.

        Rounds are the membership clock here: each round partitions
        only that round's members (see :class:`GroupSchedule`), so a
        group barrier can never wait on a departed worker.  Departure
        and (re)join follow the default lifecycle: drain, rewire
        (recorded against the nominal topology), re-sync from the
        sponsor.
        """
        env = runtime.env
        plan = self.churn
        membership = self._membership
        event = plan.event_for(wid)
        k = 0
        if event is not None and event.late_join:
            if event.join_at >= self.max_iter:
                # Clamped past the horizon: absent for the whole run.
                runtime.done[wid] = True
                return
            yield self._round_started(env, event.join_at)
            membership.enact_join(wid, env.now, start=event.join_at)
            yield from self._join_resync(runtime, wid, params)
            k = event.join_at
        while k < self.max_iter:
            if not plan.active_at(wid, k):
                if membership.is_active(wid):
                    membership.enact_leave(wid, env.now, k)
                if event.join_at is None:
                    runtime.done[wid] = True
                    return
                yield self._round_started(env, event.join_at)
                membership.enact_join(wid, env.now, start=event.join_at)
                yield from self._join_resync(runtime, wid, params)
                k = event.join_at
                continue
            self._mark_round_started(env, k)
            membership.on_iteration(wid, k, env.now)
            yield from self._round(
                wid, k, runtime, params, barriers, model, optimizer, batcher
            )
            self._completed[wid] = k + 1
            k += 1
        runtime.done[wid] = True

    def _worker(
        self,
        wid: int,
        runtime: ProtocolRuntime,
        params: Dict[int, np.ndarray],
        barriers: Dict[Tuple[int, Tuple[int, ...]], _GroupBarrier],
        model,
        optimizer: SGD,
        batcher,
    ):
        if self._membership is not None:
            return (
                yield from self._worker_elastic(
                    wid, runtime, params, barriers, model, optimizer, batcher
                )
            )
        for k in range(self.max_iter):
            yield from self._round(
                wid, k, runtime, params, barriers, model, optimizer, batcher
            )
        runtime.done[wid] = True

    # ------------------------------------------------------------------
    # ProtocolCluster hooks
    # ------------------------------------------------------------------
    def _start(self, runtime: ProtocolRuntime) -> None:
        env = runtime.env
        self._round_events: Dict[int, Event] = {}
        if self.churn is not None:
            from repro.graphs.builders import ring
            from repro.membership import MembershipRuntime, MembershipView

            # Rounds are the membership clock: joins are enacted by the
            # joiner at its round, not by frontier triggers.
            nominal = self.topology or ring(self.n_workers)
            view = MembershipView.founding(
                nominal,
                absent=self.churn.initially_absent(),
                policy=self.churn.policy,
            )
            self._membership = MembershipRuntime(
                env,
                view,
                self.churn,
                self.max_iter,
                gap=runtime.gap,
                auto_join_triggers=False,
            )
        self._params: Dict[int, np.ndarray] = {
            wid: runtime.models[wid].get_params()
            for wid in range(self.n_workers)
        }
        # One CHOCO reference channel per worker (None when dense).
        self._group_compressors = [
            self._stream_compressor(runtime, wid)
            for wid in range(self.n_workers)
        ]
        self._completed = [0] * self.n_workers
        barriers: Dict[Tuple[int, Tuple[int, ...]], _GroupBarrier] = {}
        for wid in range(self.n_workers):
            env.process(
                self._worker(
                    wid,
                    runtime,
                    self._params,
                    barriers,
                    runtime.models[wid],
                    self.optimizer_proto.clone(),
                    self._make_batcher(wid),
                ),
                name=f"partial-allreduce-{wid}",
            )

    def _iterations_completed(self, runtime: ProtocolRuntime) -> List[int]:
        if self._membership is not None:
            return list(self._completed)
        return super()._iterations_completed(runtime)

    def _final_param_stack(self, runtime: ProtocolRuntime) -> np.ndarray:
        return np.stack(
            [self._params[wid] for wid in range(self.n_workers)]
        )

    def _config_description(self) -> str:
        flavor = "static" if self.schedule.static else "randomized"
        return (
            f"partial all-reduce, {flavor} groups of "
            f"{self.schedule.group_size}"
        )

    def _topology_name(self) -> str:
        return (
            f"groups({self.n_workers}/{self.schedule.group_size}"
            f"{'*' if self.schedule.static else ''})"
        )


def _build_partial_allreduce(spec) -> PartialAllReduceCluster:
    return PartialAllReduceCluster(
        n_workers=spec.topology.n,
        group_size=spec.group_size,
        static_groups=spec.static_groups,
        links=spec.scenario_links(),
        churn=getattr(spec.built_scenario(), "churn", None),
        topology=spec.topology,
        **spec_common_kwargs(spec),
    )


register_protocol(
    "partial-allreduce",
    _build_partial_allreduce,
    summary="Prague-style partial all-reduce: randomized conflict-free "
    "groups, group-local barriers only",
    paper="Luo, He, Zhuo, Qian — arXiv:1909.08029",
    aliases=("prague",),
    elastic=True,  # rounds partition the live member set only
)
