"""Churn plans and membership views."""

import numpy as np
import pytest

from repro.graphs import ring, ring_based
from repro.membership import (
    ChurnEvent,
    ChurnPlan,
    MembershipView,
    get_rewire_policy,
    poisson_plan,
)


class TestChurnEvent:
    def test_needs_leave_or_join(self):
        with pytest.raises(ValueError, match="leave_at"):
            ChurnEvent(worker=0)

    def test_join_must_follow_leave(self):
        with pytest.raises(ValueError, match="after"):
            ChurnEvent(worker=0, leave_at=5, join_at=5)

    def test_kinds(self):
        assert ChurnEvent(worker=0, leave_at=3).permanent
        assert ChurnEvent(worker=0, join_at=3).late_join
        cycle = ChurnEvent(worker=0, leave_at=3, join_at=6)
        assert not cycle.permanent and not cycle.late_join


class TestChurnPlan:
    def test_rejects_duplicate_workers(self):
        with pytest.raises(ValueError, match="multiple"):
            ChurnPlan(
                events=(
                    ChurnEvent(worker=1, leave_at=2),
                    ChurnEvent(worker=1, join_at=4),
                )
            )

    def test_validate_quorum(self):
        plan = ChurnPlan(
            events=tuple(
                ChurnEvent(worker=w, leave_at=2) for w in range(3)
            )
        )
        with pytest.raises(ValueError, match="at least 2"):
            plan.validate_for(4)
        plan.validate_for(5)  # 2 survivors: fine

    def test_clipped_drops_and_degrades(self):
        plan = ChurnPlan(
            events=(
                ChurnEvent(worker=0, leave_at=50),  # past horizon: dropped
                ChurnEvent(worker=1, leave_at=2, join_at=50),  # -> permanent
                ChurnEvent(worker=2, join_at=50),  # -> absent all run
                ChurnEvent(worker=3, leave_at=2, join_at=4),  # kept
            )
        )
        clipped = plan.clipped(10)
        assert {e.worker for e in clipped.events} == {1, 2, 3}
        assert clipped.event_for(1).permanent
        # A scripted late join past the horizon keeps the worker
        # *absent* (clamped trigger), never a silent founding member.
        assert clipped.event_for(2).late_join
        assert clipped.event_for(2).join_at == 10
        assert clipped.event_for(3).join_at == 4

    def test_active_at_round_semantics(self):
        plan = ChurnPlan(
            events=(
                ChurnEvent(worker=0, leave_at=3),
                ChurnEvent(worker=1, join_at=2),
                ChurnEvent(worker=2, leave_at=1, join_at=4),
            )
        )
        assert plan.active_at(0, 2) and not plan.active_at(0, 3)
        assert not plan.active_at(1, 1) and plan.active_at(1, 2)
        assert plan.active_at(2, 0)
        assert not plan.active_at(2, 2)
        assert plan.active_at(2, 4)
        assert plan.active_at(3, 99)  # unscripted workers never churn

    def test_json_round_trip(self):
        plan = ChurnPlan(
            events=(
                ChurnEvent(worker=0, leave_at=3),
                ChurnEvent(worker=2, leave_at=1, join_at=4, resync=False),
            ),
            policy="metropolis",
        )
        assert ChurnPlan.from_dict(plan.to_dict()) == plan


class TestPoissonPlan:
    def test_deterministic_given_stream(self):
        draws = [
            poisson_plan(
                8, rate=0.3, horizon=12, rng=np.random.default_rng(7)
            )
            for _ in range(2)
        ]
        assert draws[0] == draws[1]

    def test_quorum_never_leaves(self):
        plan = poisson_plan(
            8,
            rate=0.99,
            horizon=12,
            rng=np.random.default_rng(0),
            min_active=5,
        )
        assert all(event.worker >= 5 for event in plan.events)
        plan.validate_for(8)

    def test_zero_rate_is_empty(self):
        plan = poisson_plan(8, rate=0.0, horizon=12, rng=np.random.default_rng(0))
        assert plan.empty

    def test_rejoin_after(self):
        plan = poisson_plan(
            6,
            rate=0.9,
            horizon=20,
            rng=np.random.default_rng(1),
            rejoin_after=3,
        )
        for event in plan.events:
            if event.join_at is not None:
                assert event.join_at == event.leave_at + 3


class TestMembershipView:
    def test_leave_reports_rewire(self):
        view = MembershipView(ring_based(6))
        policy = get_rewire_policy("uniform")
        after, report = view.leave(3, policy)
        assert after.epoch == 1
        assert 3 not in after.active
        assert report.kind == "leave" and report.worker == 3
        assert report.edges_removed
        assert report.spectral_gap > 0
        assert report.rewire_cost == 2 * (
            len(report.edges_added) + len(report.edges_removed)
        )

    def test_join_restores_founding_edges(self):
        base = ring_based(6)
        view = MembershipView(base)
        policy = get_rewire_policy("uniform")
        view, _ = view.leave(3, policy)
        view, report = view.join(3, policy)
        assert report.kind == "join"
        assert view.topology.edges == base.edges

    def test_join_falls_back_when_neighbors_departed(self):
        # Remove a node's entire founding neighborhood, then re-add it.
        base = ring(6)
        policy = get_rewire_policy("uniform")
        view = MembershipView.founding(base, absent=(0, 1, 5))
        view, report = view.join(0, policy)
        assert 0 in view.active
        assert view.topology.is_strongly_connected()

    def test_rejoin_defers_retiring_the_only_bridge_over_a_second_leaver(
        self,
    ):
        # 4 is left dangling on 3 (5 gone); 3 then bridges 4 to the
        # rest over the departed 2.  When 3 rejoins next to 4 alone,
        # retiring its bridges would cut {3, 4} off: they must stay
        # until a later join makes them redundant.
        base = ring(8)
        policy = get_rewire_policy("uniform")
        view = MembershipView(base)
        for kind, worker in [("leave", 4), ("leave", 5), ("join", 4),
                             ("leave", 2), ("leave", 3)]:
            view, _ = getattr(view, kind)(worker, policy)
        view, report = view.join(3, policy)
        assert view.topology.is_strongly_connected()
        assert report.edges_removed == ()  # retirement deferred
        view, report = view.join(2, policy)
        assert report.edges_removed  # ...and caught up here
        view, _ = view.join(5, policy)
        assert view.topology.edges == base.edges
        assert view.topology.repair_sources == {}

    def test_founding_quorum(self):
        view = MembershipView.founding(ring(6), absent=(1, 4))
        assert view.active == frozenset({0, 2, 3, 5})
        assert view.topology.is_strongly_connected()
        assert view.base.active == frozenset(range(6))

    def test_quorum_guard(self):
        view = MembershipView.founding(ring(4), absent=(1, 2))
        policy = get_rewire_policy("uniform")
        with pytest.raises(Exception, match="quorum|2 active"):
            view.leave(0, policy)

    def test_spectral_gap_ignores_inactive_identity_rows(self):
        view = MembershipView.founding(ring(6), absent=(2,))
        # The full matrix has an eigenvalue-1 identity row for node 2;
        # the active-submatrix gap must still be positive.
        assert view.spectral_gap() > 0
