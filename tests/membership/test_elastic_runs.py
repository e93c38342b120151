"""End-to-end elastic runs: the membership plane across the stack."""

import math

import numpy as np
import pytest

from repro.core.config import HopConfig, backup_config, staleness_config
from repro.graphs import bipartite_ring, ring_based
from repro.harness import ExperimentSpec, run_spec, svm_workload
from repro.scenarios import ScenarioSpec

WORKLOAD = svm_workload("smoke")


def churn_spec(protocol="hop", params=None, topology=None, **kwargs):
    return ExperimentSpec(
        name="elastic-test",
        workload=WORKLOAD,
        topology=topology
        if topology is not None
        else (bipartite_ring(6) if protocol == "adpsgd" else ring_based(6)),
        protocol=protocol,
        scenario=ScenarioSpec("churn", dict(params or {"leaves": {5: 3}})),
        max_iter=kwargs.pop("max_iter", 12),
        seed=kwargs.pop("seed", 1),
        **kwargs,
    )


class TestHopChurn:
    def test_permanent_leave_rewires_and_finishes(self):
        run = run_spec(churn_spec())
        assert run.iterations_completed[:5] == [12] * 5
        assert run.iterations_completed[5] == 3
        kinds = [e["kind"] for e in run.membership_events]
        assert kinds == ["leave", "rewire"]
        rewire = run.membership_events[1]
        assert rewire["spectral_gap"] > 0
        assert rewire["n_active"] == 5
        assert math.isfinite(run.final_loss)

    def test_leave_rejoin_cycle_resyncs(self):
        run = run_spec(
            churn_spec(params={"cycles": {4: [2, 5]}}, max_iter=14)
        )
        assert all(c == 14 for c in run.iterations_completed)
        kinds = [e["kind"] for e in run.membership_events]
        assert kinds == ["leave", "rewire", "join", "rewire"]
        # The rejoiner skipped the iterations it was dark for.
        assert run.iterations_skipped[4] > 0

    def test_late_join(self):
        run = run_spec(churn_spec(params={"joins": {2: 4}}, max_iter=14))
        assert all(c == 14 for c in run.iterations_completed)
        kinds = [e["kind"] for e in run.membership_events]
        assert kinds == ["join", "rewire"]
        assert run.iterations_skipped[2] > 0

    @pytest.mark.parametrize(
        "protocol", ["hop", "adpsgd", "partial-allreduce"]
    )
    def test_late_join_past_horizon_stays_absent(self, protocol):
        # joins={2: 50} over 10 iterations scripts worker 2 outside
        # the cluster for the whole run: it must stay absent (not
        # silently become a founding member) and nobody may hang.
        run = run_spec(
            churn_spec(
                protocol=protocol, params={"joins": {2: 50}}, max_iter=10
            )
        )
        assert run.iterations_completed[2] == 0
        others = [
            completed
            for wid, completed in enumerate(run.iterations_completed)
            if wid != 2
        ]
        assert all(c == 10 for c in others)
        assert run.membership_events == []

    def test_in_flight_messages_to_departed_count_dropped(self):
        # A leave mid-run: updates already launched toward the leaver
        # are dropped at delivery, not enqueued into a dead queue.
        run = run_spec(churn_spec(params={"leaves": {5: 6}}))
        assert run.messages_dropped >= 0  # counting plumbed through
        clean = run_spec(
            ExperimentSpec(
                name="static",
                workload=WORKLOAD,
                topology=ring_based(6),
                protocol="hop",
                max_iter=12,
                seed=1,
            )
        )
        assert clean.messages_dropped == 0
        assert clean.membership_events == []

    @pytest.mark.parametrize(
        "config",
        [backup_config(n_backup=1, max_ig=3), staleness_config(staleness=2)],
        ids=["backup", "staleness"],
    )
    def test_churn_under_non_standard_modes(self, config):
        run = run_spec(
            churn_spec(params={"leaves": {5: 3}}, config=config)
        )
        assert run.iterations_completed[:5] == [12] * 5
        assert math.isfinite(run.final_loss)

    def test_bounded_queue_capacity_rebounds(self):
        from repro.core.config import HopConfig

        config = HopConfig(bound_update_queues=True, max_ig=3)
        run = run_spec(churn_spec(params={"leaves": {5: 2}}, config=config))
        assert run.iterations_completed[:5] == [12] * 5

    def test_membership_leave_keeps_gap_tracking_sane(self):
        run = run_spec(churn_spec(params={"leaves": {5: 2}}))
        # The departed worker must not pollute gaps: observed max gap
        # stays bounded by the run length, not the sentinel.
        assert run.gap.max_observed() < 12

    def test_determinism_bitwise(self):
        first = run_spec(churn_spec(params={"cycles": {4: [2, 5]}}))
        second = run_spec(churn_spec(params={"cycles": {4: [2, 5]}}))
        assert first.final_params.tobytes() == second.final_params.tobytes()
        assert first.wall_time == second.wall_time
        assert first.membership_events == second.membership_events


class TestTokenFabricRepair:
    """The regimes where token repair actually bites: tight max_ig,
    stragglers, and rejoin cycles that retire repair edges."""

    @pytest.mark.parametrize(
        "config",
        [HopConfig(max_ig=1), backup_config(n_backup=1, max_ig=2)],
        ids=["max_ig=1", "backup"],
    )
    def test_cycles_with_straggler_never_deadlock(self, config):
        # Rejoins retire the repair bridges their departures created;
        # consumers blocked on a retired edge's token queue must be
        # released, and re-established edges must reset to the
        # invariant count (not inherit a stale frozen one).
        run = run_spec(
            ExperimentSpec(
                name="token-repair",
                workload=WORKLOAD,
                topology=ring_based(8),
                protocol="hop",
                config=config,
                scenario=ScenarioSpec(
                    "churn",
                    {
                        "cycles": {6: [2, 4], 7: [3, 6]},
                        "slowdown": {
                            "family": "straggler",
                            "params": {"workers": {2: 4.0}},
                        },
                    },
                ),
                max_iter=20,
                seed=2,
            )
        )
        assert all(c == 20 for c in run.iterations_completed)
        assert math.isfinite(run.final_loss)

    def test_egress_nic_path_routes_by_membership(self):
        # Shared machine uplinks fall back to Network.send; deliveries
        # to departed workers must still be dropped and counted there.
        run = run_spec(
            ExperimentSpec(
                name="nic-churn",
                workload=WORKLOAD,
                topology=ring_based(6),
                protocol="hop",
                scenario=ScenarioSpec("churn", {"leaves": {5: 4}}),
                machines=(0, 0, 1, 1, 2, 2),
                max_iter=12,
                seed=1,
            )
        )
        assert run.iterations_completed[:5] == [12] * 5
        assert run.messages_dropped > 0


class TestElasticGossipProtocols:
    @pytest.mark.parametrize("protocol", ["adpsgd", "partial-allreduce"])
    def test_permanent_leave(self, protocol):
        run = run_spec(churn_spec(protocol=protocol))
        assert run.iterations_completed[:5] == [12] * 5
        assert run.iterations_completed[5] == 3
        assert [e["kind"] for e in run.membership_events] == [
            "leave",
            "rewire",
        ]
        assert math.isfinite(run.final_loss)

    @pytest.mark.parametrize("protocol", ["adpsgd", "partial-allreduce"])
    def test_cycle_resyncs_from_sponsor(self, protocol):
        run = run_spec(
            churn_spec(
                protocol=protocol,
                params={"cycles": {4: [2, 6]}},
                max_iter=14,
            )
        )
        assert all(c == 14 for c in run.iterations_completed)
        kinds = [e["kind"] for e in run.membership_events]
        assert "join" in kinds and "leave" in kinds

    def test_partial_allreduce_rejects_static_groups_with_churn(self):
        with pytest.raises(ValueError, match="static"):
            run_spec(churn_spec(protocol="partial-allreduce", static_groups=True))


#: The protocols converted in the full-grid elasticity pass, with the
#: topology family each requires.
NEWLY_ELASTIC = [
    ("allreduce", ring_based),
    ("notify_ack", ring_based),
    ("ps-bsp", ring_based),
    ("ps-async", ring_based),
    ("ps-ssp", ring_based),
    ("momentum-tracking", bipartite_ring),
]


class TestNewlyElasticProtocols:
    """Full-grid conversions: ring rebuild (allreduce), shard failover
    (ps-*), ACK-fabric repair (notify_ack) and gossip-inherited
    lifecycle (momentum-tracking) all survive churn at n=6."""

    @staticmethod
    def _spec(protocol, topo, **kwargs):
        extras = {"ps_staleness": 2} if protocol == "ps-ssp" else {}
        return churn_spec(
            protocol=protocol, topology=topo(6), **extras, **kwargs
        )

    @pytest.mark.parametrize(
        "protocol,topo", NEWLY_ELASTIC, ids=[p for p, _ in NEWLY_ELASTIC]
    )
    def test_permanent_leave(self, protocol, topo):
        run = run_spec(self._spec(protocol, topo))
        assert run.iterations_completed[:5] == [12] * 5
        assert run.iterations_completed[5] == 3
        kinds = [e["kind"] for e in run.membership_events]
        assert "leave" in kinds and "rewire" in kinds
        if protocol.startswith("ps-"):
            assert "reshard" in kinds, "departing owner must re-shard"
        assert math.isfinite(run.final_loss)
        assert np.isfinite(run.final_params).all()

    @pytest.mark.parametrize(
        "protocol,topo", NEWLY_ELASTIC, ids=[p for p, _ in NEWLY_ELASTIC]
    )
    def test_leave_rejoin_cycle(self, protocol, topo):
        run = run_spec(
            self._spec(
                protocol, topo, params={"cycles": {4: [2, 6]}}, max_iter=14
            )
        )
        others = [
            completed
            for wid, completed in enumerate(run.iterations_completed)
            if wid != 4
        ]
        assert all(c == 14 for c in others), run.iterations_completed
        kinds = [e["kind"] for e in run.membership_events]
        assert "leave" in kinds and "join" in kinds
        assert math.isfinite(run.final_loss)

    @pytest.mark.parametrize(
        "protocol,topo", NEWLY_ELASTIC, ids=[p for p, _ in NEWLY_ELASTIC]
    )
    def test_churn_determinism_bitwise(self, protocol, topo):
        make = lambda: self._spec(  # noqa: E731
            protocol, topo, params={"cycles": {4: [2, 6]}}, max_iter=14
        )
        first, second = run_spec(make()), run_spec(make())
        assert first.final_params.tobytes() == second.final_params.tobytes()
        assert first.wall_time == second.wall_time
        assert first.membership_events == second.membership_events


class TestRewirePolicySelection:
    def test_metropolis_policy_through_scenario(self):
        run = run_spec(
            churn_spec(params={"leaves": {5: 3}, "policy": "metropolis"})
        )
        assert run.iterations_completed[:5] == [12] * 5
        assert run.membership_events[1]["spectral_gap"] > 0

    def test_unknown_policy_fails_loudly(self):
        with pytest.raises((SystemExit, ValueError)):
            run_spec(churn_spec(params={"leaves": {5: 3}, "policy": "nope"}))


class TestCrashRestartUnification:
    """Restart is leave+join with state carryover: the shared lifecycle
    helper serves both, and the pre-membership behavior is unchanged."""

    def test_crash_restart_still_resyncs(self):
        run = run_spec(
            ExperimentSpec(
                name="restart",
                workload=WORKLOAD,
                topology=ring_based(6),
                protocol="hop",
                scenario=ScenarioSpec(
                    "crash-restart",
                    {"worker": 2, "at": 3, "downtime_iters": 4.0},
                ),
                max_iter=12,
                seed=1,
            )
        )
        kinds = [e["kind"] for e in run.fault_events]
        assert kinds == ["crashed", "resynced", "restarted"]
        assert all(c == 12 for c in run.iterations_completed)

    def test_churn_and_crash_compose(self):
        # A crash-restart riding on a churn plan: both lifecycles share
        # the re-sync helper and neither deadlocks the other.
        spec = churn_spec(params={"leaves": {5: 6}})
        scenario = ScenarioSpec(
            "churn",
            {
                "leaves": {5: 6},
                "slowdown": {"family": "straggler", "params": {"workers": {1: 3.0}}},
            },
        )
        run = run_spec(spec.with_(scenario=scenario))
        assert run.iterations_completed[:5] == [12] * 5
        assert math.isfinite(run.final_loss)


class TestPoissonChurnRegressions:
    def test_adpsgd_seed_189_rejoins_next_to_a_second_leaver(self):
        # Used to die with TopologyError "'bipartite_ring(16)' is not
        # strongly connected": worker 12 rejoined beside 13 alone
        # (11 still away) and retiring its bridges cut both off.
        spec = ExperimentSpec(
            name="poisson-189",
            workload=WORKLOAD,
            topology=bipartite_ring(16),
            protocol="adpsgd",
            scenario=ScenarioSpec(
                "churn-poisson",
                {"rate": 0.2, "horizon": 20, "rejoin_after": 3},
            ),
            max_iter=30,
            seed=189,
        )
        run = run_spec(spec)
        assert math.isfinite(run.final_loss)
        assert max(run.iterations_completed) == 30
