"""Tests for the protocol registry and its CLI integration."""

import numpy as np
import pytest

from repro.cli import main
from repro.graphs import ring, ring_based
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import svm_workload
from repro.protocols import (
    PROTOCOLS,
    ProtocolCluster,
    ProtocolRuntime,
    build_cluster,
    get_protocol,
    protocol_table,
    register_protocol,
    registered_protocols,
    spec_common_kwargs,
)
from repro.protocols.partial_allreduce import GroupSchedule

#: Protocols the issue requires `train --protocol` to resolve, with a
#: graph each can run on (gossip protocols need a bipartite graph).
REQUIRED_PROTOCOLS = {
    "hop": "ring_based",
    "ps": "ring_based",
    "allreduce": "ring_based",
    "adpsgd": "bipartite_ring",
    "partial-allreduce": "ring_based",
    "momentum-tracking": "bipartite_ring",
}


class TestRegistry:
    def test_all_builtins_registered(self):
        names = registered_protocols()
        assert {
            "hop",
            "notify_ack",
            "ps-bsp",
            "ps-async",
            "ps-ssp",
            "allreduce",
            "adpsgd",
            "partial-allreduce",
            "momentum-tracking",
        } <= set(names)

    def test_at_least_six_protocols(self):
        assert len(registered_protocols(include_aliases=True)) >= 6

    def test_unknown_protocol_error_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_protocol("telepathy")
        message = str(excinfo.value)
        assert "telepathy" in message
        for name in registered_protocols(include_aliases=True):
            assert name in message

    def test_unknown_protocol_via_run_spec(self):
        spec = ExperimentSpec(
            "x", svm_workload("smoke"), ring(4), protocol="telepathy"
        )
        with pytest.raises(ValueError, match="registered protocols"):
            run_spec(spec)

    def test_aliases_resolve_to_canonical(self):
        assert get_protocol("ps").name == "ps-bsp"
        assert get_protocol("prague").name == "partial-allreduce"

    def test_protocol_table_has_citations(self):
        rows = protocol_table()
        assert {row["name"] for row in rows} == set(registered_protocols())
        for row in rows:
            assert row["summary"]
            assert row["paper"]

    def test_build_cluster_is_unrun(self):
        spec = ExperimentSpec(
            "b", svm_workload("smoke"), ring_based(6), max_iter=4
        )
        cluster = build_cluster(spec)
        assert isinstance(cluster, ProtocolCluster)
        assert cluster.max_iter == 4
        assert cluster.run().protocol == "hop"


class TestExtensionPoint:
    """A third-party protocol plugs in through the public API alone."""

    def test_register_and_run_custom_protocol(self):
        class LocalSGDCluster(ProtocolCluster):
            """No communication at all: every worker trains alone."""

            protocol = "local-only-test"

            def _start(self, runtime: ProtocolRuntime) -> None:
                env = runtime.env
                self._params = {}

                def worker(wid, model, optimizer, batcher):
                    params = model.get_params()
                    for k in range(self.max_iter):
                        start = env.now
                        order = next(runtime.ledger.order)
                        model.set_params(params)
                        ticket = runtime.compute.submit(model, batcher)
                        yield env.timeout(
                            self.compute_model.duration(wid, k)
                        )
                        loss, grad = ticket.result()
                        params = params + optimizer.step(params, grad)
                        runtime.ledger.record(
                            wid, k, start, env.now, loss, (start, env.now),
                            order=order,
                        )
                    self._params[wid] = params
                    runtime.done[wid] = True

                for wid in range(self.n_workers):
                    env.process(
                        worker(
                            wid,
                            runtime.models[wid],
                            self.optimizer_proto.clone(),
                            self._make_batcher(wid),
                        )
                    )

            def _final_param_stack(self, runtime):
                return np.stack(
                    [self._params[w] for w in range(self.n_workers)]
                )

            def _config_description(self):
                return "local SGD, zero communication"

            def _topology_name(self):
                return f"isolated({self.n_workers})"

        def build(spec):
            return LocalSGDCluster(
                n_workers=spec.topology.n, **spec_common_kwargs(spec)
            )

        register_protocol(
            "local-only-test", build, summary="test-only", paper="n/a"
        )
        try:
            spec = ExperimentSpec(
                "local",
                svm_workload("smoke"),
                ring(4),
                protocol="local-only-test",
                max_iter=5,
            )
            run = run_spec(spec)
            assert run.protocol == "local-only-test"
            assert run.messages_sent == 0
            assert run.consensus > 0  # isolated replicas drift apart
            assert len(run.ledger) == 4 * 5
            assert all(
                stats["iteration_duration_mean"] > 0
                for stats in run.worker_stats
            )
        finally:
            PROTOCOLS.remove("local-only-test")


class TestCLIRoundTrip:
    @pytest.mark.parametrize(
        "protocol,graph", sorted(REQUIRED_PROTOCOLS.items())
    )
    def test_required_protocols_train(self, protocol, graph, capsys):
        code = main(
            [
                "train",
                "--protocol", protocol,
                "--graph", graph,
                "--workers", "6",
                "--iterations", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wall_time" in out
        assert "protocol=" in out

    def test_every_registered_protocol_trains(self, capsys):
        bipartite_needed = {"adpsgd", "momentum-tracking"}
        for protocol in registered_protocols():
            graph = (
                "bipartite_ring"
                if protocol in bipartite_needed
                else "ring_based"
            )
            code = main(
                [
                    "train",
                    "--protocol", protocol,
                    "--graph", graph,
                    "--workers", "6",
                    "--iterations", "3",
                ]
            )
            assert code == 0, f"train --protocol {protocol} failed"
            assert "wall_time" in capsys.readouterr().out

    def test_protocols_command_lists_registry(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in registered_protocols():
            assert name in out
        assert "arXiv:1909.08029" in out
        assert "arXiv:2209.15505" in out

    def test_partial_allreduce_knobs(self, capsys):
        code = main(
            [
                "train",
                "--protocol", "partial-allreduce",
                "--workers", "6",
                "--iterations", "4",
                "--group-size", "3",
                "--static-groups",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "static groups of 3" in out


class TestGroupScheduleConflicts:
    @pytest.mark.parametrize("n", [4, 6, 8, 9, 16, 17])
    @pytest.mark.parametrize("group_size", [2, 3, 4, 8])
    def test_never_schedules_conflicting_groups(self, n, group_size):
        schedule = GroupSchedule(n, group_size, seed=3)
        for k in range(50):
            groups = schedule.groups_for_round(k)
            GroupSchedule.validate_partition(groups, n)
            # membership lookup agrees with the partition
            for group in groups:
                for wid in group:
                    assert schedule.group_of(k, wid) == group

    def test_randomized_rounds_differ(self):
        schedule = GroupSchedule(8, 4, seed=0)
        rounds = {schedule.groups_for_round(k) for k in range(10)}
        assert len(rounds) > 1

    def test_static_rounds_identical(self):
        schedule = GroupSchedule(8, 4, seed=0, static=True)
        first = schedule.groups_for_round(0)
        assert all(
            schedule.groups_for_round(k) == first for k in range(10)
        )

    def test_validate_partition_rejects_conflicts(self):
        with pytest.raises(ValueError, match="two groups"):
            GroupSchedule.validate_partition(((0, 1), (1, 2)), 3)
        with pytest.raises(ValueError, match="cover"):
            GroupSchedule.validate_partition(((0, 1),), 3)

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            GroupSchedule(8, 1)
        with pytest.raises(ValueError):
            GroupSchedule(1, 2)
