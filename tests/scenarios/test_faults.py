"""Unit and integration tests for scenario fault injection."""

import numpy as np
import pytest

from repro.core.config import STANDARD, backup_config
from repro.graphs import ring_based
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import svm_workload
from repro.net.links import Link, LinkModel, uniform_links
from repro.scenarios import (
    CrashEvent,
    CrashStallSlowdown,
    FaultPlan,
    FlappingLinkModel,
    LinkFlap,
    MessageLoss,
    ScenarioSpec,
)
from repro.sim import RngStreams

WORKLOAD = svm_workload("smoke")


def hop_spec(scenario, n=6, max_iter=12, seed=0, config=STANDARD, **kw):
    return ExperimentSpec(
        name="faults",
        workload=WORKLOAD,
        topology=ring_based(n),
        protocol="hop",
        config=config,
        scenario=scenario,
        max_iter=max_iter,
        seed=seed,
        **kw,
    )


class TestCrashEvent:
    def test_permanent_vs_restart(self):
        assert CrashEvent(0, 3).permanent
        assert not CrashEvent(0, 3, downtime_iters=5.0).permanent

    def test_validation(self):
        with pytest.raises(ValueError):
            CrashEvent(0, -1)
        with pytest.raises(ValueError):
            CrashEvent(0, 1, downtime_iters=-2.0)

    def test_fault_plan_rejects_duplicate_workers(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes=(CrashEvent(1, 2), CrashEvent(1, 5)))

    def test_out_of_range_crash_worker_rejected_at_build(self):
        """worker=99 on a 4-worker cluster must fail loudly, not
        silently run clean (and silently excuse real deadlocks)."""
        streams = RngStreams(0)
        for family, params in (
            ("crash", {"worker": 99, "at": 2}),
            ("crash", {"crashes": {99: 2}}),
            ("crash-restart", {"worker": 99, "at": 2}),
            ("crash-restart", {"worker": -1, "at": 2}),
        ):
            with pytest.raises(ValueError):
                ScenarioSpec(family, params).build(4, streams)

    def test_fault_events_ordered_causally_on_time_ties(self):
        run = run_spec(
            hop_spec(
                ScenarioSpec(
                    "crash-restart",
                    {"worker": 2, "at": 3, "downtime_iters": 5.0},
                )
            )
        )
        kinds = [event["kind"] for event in run.fault_events]
        assert kinds == ["crashed", "resynced", "restarted"]


class TestCrashStallSlowdown:
    def test_stall_at_crash_iteration_only(self):
        model = CrashStallSlowdown((CrashEvent(2, 4, downtime_iters=6.0),))
        assert model.factor(2, 4) == 7.0  # 1 + downtime
        assert model.factor(2, 3) == 1.0
        assert model.factor(1, 4) == 1.0

    def test_rejects_permanent_crashes(self):
        with pytest.raises(ValueError):
            CrashStallSlowdown((CrashEvent(0, 1),))

    def test_downtime_adds_rather_than_multiplies_with_slowdown(self):
        """The outage is absolute dead time: a 6x slowdown landing on
        the crash iteration must not scale the downtime (matching
        hop's native flat-timeout semantics)."""
        scenario = ScenarioSpec(
            "crash-restart",
            {
                "worker": 0,
                "at": 2,
                "downtime_iters": 10.0,
                "slowdown": {
                    "family": "straggler",
                    "params": {"workers": {0: 6.0}},
                },
            },
        ).build(4, RngStreams(0))
        combined = scenario.compute_slowdown(native_faults=False)
        assert combined.factor(0, 2) == 6.0 + 10.0  # not 6 * 11
        assert combined.factor(0, 1) == 6.0
        assert combined.factor(1, 2) == 1.0


class TestFlappingLinkModel:
    def test_degrades_only_inside_window(self):
        base = uniform_links(latency=1e-3, bandwidth=100.0)
        model = FlappingLinkModel(
            base, (LinkFlap(start=1.0, end=2.0, factor=10.0),)
        )
        clock = [0.0]
        model.bind_clock(lambda: clock[0])
        before = model.transfer_time(0, 1, 10.0)
        clock[0] = 1.5
        during = model.transfer_time(0, 1, 10.0)
        clock[0] = 2.0
        after = model.transfer_time(0, 1, 10.0)
        assert during == pytest.approx(10 * before)
        assert after == before

    def test_edge_scoped_flap(self):
        base = uniform_links()
        model = FlappingLinkModel(
            base, (LinkFlap(0.0, 9.0, 5.0, edges=((0, 1),)),)
        )
        model.bind_clock(lambda: 1.0)
        assert model.transfer_time(0, 1, 1.0) == pytest.approx(
            5 * base.transfer_time(0, 1, 1.0), rel=1e-6
        )
        assert model.transfer_time(1, 0, 1.0) == base.transfer_time(1, 0, 1.0)

    def test_self_edges_never_flap(self):
        model = FlappingLinkModel(uniform_links(), (LinkFlap(0.0, 9.0, 5.0),))
        model.bind_clock(lambda: 1.0)
        assert model.link(2, 2).latency == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFlap(2.0, 1.0, 4.0)
        with pytest.raises(ValueError):
            LinkFlap(0.0, 1.0, 0.0)


class TestMessageLoss:
    def test_draws_are_geometricish(self):
        loss = MessageLoss(0.5, rng=np.random.default_rng(0))
        draws = [loss.draw_drops() for _ in range(2000)]
        rate = np.mean([d > 0 for d in draws])
        assert rate == pytest.approx(0.5, abs=0.05)
        assert loss.messages_dropped == sum(draws)

    def test_zero_probability_never_drops(self):
        loss = MessageLoss(0.0, rng=np.random.default_rng(0))
        assert all(loss.draw_drops() == 0 for _ in range(100))

    def test_bounded_retries(self):
        loss = MessageLoss(
            0.999999, max_retries=3, rng=np.random.default_rng(0)
        )
        assert max(loss.draw_drops() for _ in range(50)) <= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            MessageLoss(1.0)
        with pytest.raises(ValueError):
            MessageLoss(0.1, retransmit_timeout=-1.0)


class TestHopCrashRestart:
    def test_lifecycle_events_and_completion(self):
        run = run_spec(
            hop_spec(
                ScenarioSpec(
                    "crash-restart",
                    {"worker": 2, "at": 3, "downtime_iters": 5.0},
                )
            )
        )
        kinds = [event["kind"] for event in run.fault_events]
        assert kinds.count("crashed") == 1
        assert kinds.count("restarted") == 1
        assert kinds.count("resynced") == 1
        assert all(c == 12 for c in run.iterations_completed)
        crashed = next(
            e for e in run.fault_events if e["kind"] == "crashed"
        )
        assert crashed["worker"] == 2
        assert crashed["iteration"] == 3

    def test_restart_without_resync(self):
        run = run_spec(
            hop_spec(
                ScenarioSpec(
                    "crash-restart",
                    {
                        "worker": 2,
                        "at": 3,
                        "downtime_iters": 5.0,
                        "resync": False,
                    },
                )
            )
        )
        kinds = [event["kind"] for event in run.fault_events]
        assert "resynced" not in kinds
        assert "restarted" in kinds
        assert all(c == 12 for c in run.iterations_completed)

    def test_downtime_costs_wall_time(self):
        clean = run_spec(hop_spec(ScenarioSpec("none")))
        crashed = run_spec(
            hop_spec(
                ScenarioSpec(
                    "crash-restart",
                    {"worker": 0, "at": 2, "downtime_iters": 10.0},
                )
            )
        )
        assert crashed.wall_time > clean.wall_time

    def test_overlapping_restarts_skip_dark_resync_sources(self):
        """Two neighbors dark at once: a restarting worker must not
        copy parameters from a peer still in its own downtime; the run
        still completes for everyone."""
        from repro.core.cluster import HopCluster
        from repro.scenarios.models import ComputeModel

        cluster = HopCluster(
            topology=ring_based(6),
            config=STANDARD,
            model_factory=WORKLOAD.model_factory,
            dataset=WORKLOAD.dataset,
            optimizer=WORKLOAD.optimizer_factory(),
            batch_size=WORKLOAD.batch_size,
            compute_model=ComputeModel(
                base_time=WORKLOAD.base_compute_time, n_workers=6
            ),
            max_iter=12,
            seed=0,
            crash_events={
                1: CrashEvent(1, 3, downtime_iters=8.0),
                2: CrashEvent(2, 3, downtime_iters=8.0),
            },
        )
        run = cluster.run()
        assert all(c == 12 for c in run.iterations_completed)
        kinds = [e["kind"] for e in run.fault_events]
        assert kinds.count("crashed") == 2
        assert kinds.count("restarted") == 2

    def test_lossy_net_penalty_applies_on_shared_nic_path(self):
        """Machine-aware deployments (shared uplink NICs) must also pay
        for dropped messages."""
        machines = (0, 0, 1, 1, 2, 2)
        clean = run_spec(
            hop_spec(ScenarioSpec("none"), machines=machines)
        )
        lossy = run_spec(
            hop_spec(
                ScenarioSpec("lossy-net", {"probability": 0.3}),
                machines=machines,
            )
        )
        assert lossy.messages_dropped > 0
        assert lossy.wall_time > clean.wall_time

    def test_restart_count_in_worker_stats(self):
        run = run_spec(
            hop_spec(
                ScenarioSpec(
                    "crash-restart",
                    {"worker": 1, "at": 2, "downtime_iters": 4.0},
                )
            )
        )
        assert run.worker_stats[1]["n_restarts"] == 1
        assert run.worker_stats[0]["n_restarts"] == 0


class TestHopPermanentCrash:
    def test_crash_family_maps_to_legacy_fail_stop(self):
        run = run_spec(
            hop_spec(
                ScenarioSpec("crash", {"worker": 0, "at": 4}),
                config=backup_config(n_backup=1, max_ig=3),
            )
        )
        assert run.iterations_completed[0] == 4
        # Theorem 2 blast radius: neighbors reach crash + max_ig.
        assert max(run.iterations_completed[1:]) <= 4 + 3
        assert [e["kind"] for e in run.fault_events] == ["crashed"]

    def test_crash_restart_deadlock_detection_still_armed(self):
        """Crash-*restart* runs must finish; the permanent-crash excuse
        does not apply to them (a genuine stall would raise)."""
        # A successful run proves the non-excused path completes.
        run = run_spec(
            hop_spec(
                ScenarioSpec(
                    "crash-restart",
                    {"worker": 0, "at": 2, "downtime_iters": 3.0},
                )
            )
        )
        assert all(c == 12 for c in run.iterations_completed)


class TestNetworkFaultsInRuns:
    def test_lossy_net_drops_and_still_converges(self):
        run = run_spec(
            hop_spec(ScenarioSpec("lossy-net", {"probability": 0.2}))
        )
        assert run.messages_dropped > 0
        assert all(c == 12 for c in run.iterations_completed)
        clean = run_spec(hop_spec(ScenarioSpec("none")))
        assert run.wall_time > clean.wall_time  # loss costs time

    def test_flaky_net_slows_the_run(self):
        clean = run_spec(hop_spec(ScenarioSpec("none")))
        flaky = run_spec(
            hop_spec(
                ScenarioSpec(
                    "flaky-net",
                    {"start": 0.0, "end": 2.0, "factor": 20.0},
                )
            )
        )
        assert flaky.wall_time > clean.wall_time

    def test_faults_compose_with_nested_slowdown(self):
        scenario = ScenarioSpec(
            "lossy-net",
            {
                "probability": 0.1,
                "slowdown": {
                    "family": "straggler",
                    "params": {"workers": {0: 4.0}},
                },
            },
        )
        run = run_spec(hop_spec(scenario))
        assert run.messages_dropped > 0
        # The nested straggler bites: worker 0 is the slow one.
        durations = [
            s["iteration_duration_mean"] for s in run.worker_stats
        ]
        assert durations[0] == max(durations)

    def test_nested_slowdown_must_be_pure(self):
        scenario = ScenarioSpec(
            "lossy-net",
            {
                "probability": 0.1,
                "slowdown": {
                    "family": "crash-restart",
                    "params": {"worker": 0, "at": 1},
                },
            },
        )
        with pytest.raises(ValueError):
            run_spec(hop_spec(scenario))
