"""Behavior tests for the partial-all-reduce and momentum-tracking
protocols."""

import numpy as np
import pytest

from repro.graphs import bipartite_ring, ring_based
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import svm_workload
from repro.harness.spec import deterministic_straggler
from repro.protocols.partial_allreduce import PartialAllReduceCluster
from repro.protocols.registry import build_cluster


@pytest.fixture(scope="module")
def workload():
    return svm_workload("smoke")


class TestPartialAllReduce:
    def test_run_is_deterministic(self, workload):
        spec = ExperimentSpec(
            "d",
            workload,
            ring_based(8),
            protocol="partial-allreduce",
            max_iter=6,
            seed=7,
        )
        a, b = run_spec(spec), run_spec(spec)
        assert a.wall_time == b.wall_time
        assert np.array_equal(a.final_params, b.final_params)

    def test_message_accounting_matches_partition(self, workload):
        # n=8, group_size=4 -> two groups of 4 per round: each runs a
        # chunked ring all-reduce of 2(g-1)g messages and 2(g-1)M bytes.
        iters = 5
        spec = ExperimentSpec(
            "m",
            workload,
            ring_based(8),
            protocol="partial-allreduce",
            group_size=4,
            max_iter=iters,
            seed=0,
        )
        run = run_spec(spec)
        per_round = 2 * (2 * 3 * 4)
        assert run.messages_sent == iters * per_round
        assert run.bytes_sent == pytest.approx(
            iters * 2 * (2 * 3 * workload.update_size)
        )

    def test_straggler_only_gates_its_group(self, workload):
        straggler = deterministic_straggler(worker=0, factor=4.0)
        runs = {
            protocol: run_spec(
                ExperimentSpec(
                    protocol,
                    workload,
                    ring_based(8),
                    protocol=protocol,
                    scenario=straggler,
                    max_iter=8,
                    seed=0,
                )
            )
            for protocol in ("allreduce", "partial-allreduce")
        }
        assert (
            runs["partial-allreduce"].wall_time
            < runs["allreduce"].wall_time
        )

    def test_static_groups_never_reach_global_consensus(self, workload):
        runs = {}
        for label, static in (("random", False), ("static", True)):
            runs[label] = run_spec(
                ExperimentSpec(
                    label,
                    workload,
                    ring_based(8),
                    protocol="partial-allreduce",
                    static_groups=static,
                    max_iter=10,
                    seed=0,
                )
            )
        assert runs["random"].consensus < runs["static"].consensus

    def test_group_of_size_one_is_local_step(self, workload):
        # n=9, group_size=8 -> one group of 8 plus a singleton each
        # round; the singleton must not deadlock waiting for peers.
        # (partial all-reduce only uses the topology's worker count,
        # so an odd-sized chain graph is fine)
        from repro.graphs import chain

        spec = ExperimentSpec(
            "s",
            workload,
            chain(9),
            protocol="partial-allreduce",
            group_size=8,
            max_iter=4,
            seed=0,
        )
        run = run_spec(spec)
        assert run.iterations_completed == [4] * 9

    def test_cluster_validates_group_size(self, workload):
        with pytest.raises(ValueError):
            PartialAllReduceCluster(
                n_workers=4,
                model_factory=workload.model_factory,
                dataset=workload.dataset,
                group_size=1,
            )

    def test_protocol_label_and_description(self, workload):
        run = run_spec(
            ExperimentSpec(
                "l",
                workload,
                ring_based(8),
                protocol="partial-allreduce",
                max_iter=3,
            )
        )
        assert run.protocol == "partial-allreduce"
        assert "randomized groups of 4" in run.config_description


class TestMomentumTracking:
    def test_run_is_deterministic(self, workload):
        spec = ExperimentSpec(
            "d",
            workload,
            bipartite_ring(8),
            protocol="momentum-tracking",
            max_iter=6,
            seed=3,
        )
        a, b = run_spec(spec), run_spec(spec)
        assert a.wall_time == b.wall_time
        assert np.array_equal(a.final_params, b.final_params)

    @pytest.mark.parametrize("mode", ["tracking", "quasi-global"])
    def test_both_modes_converge(self, workload, mode):
        run = run_spec(
            ExperimentSpec(
                mode,
                workload,
                bipartite_ring(8),
                protocol="momentum-tracking",
                momentum_mode=mode,
                max_iter=12,
                seed=0,
            )
        )
        assert run.final_loss < 1.0
        assert mode in run.config_description

    def test_unknown_mode_rejected(self, workload):
        spec = ExperimentSpec(
            "u",
            workload,
            bipartite_ring(4),
            protocol="momentum-tracking",
            momentum_mode="psychic",
        )
        with pytest.raises(ValueError, match="momentum_mode"):
            build_cluster(spec)

    def test_beta_is_the_optimizer_momentum(self, workload):
        spec = ExperimentSpec(
            "b",
            workload,
            bipartite_ring(4),
            protocol="momentum-tracking",
            max_iter=2,
        )
        cluster = build_cluster(spec)
        assert cluster.optimizer_proto.momentum == pytest.approx(0.9)
        assert "beta=0.9)" in cluster.run().config_description

    def test_tracking_mode_pays_double_gossip_bandwidth(self, workload):
        runs = {}
        for mode in ("tracking", "quasi-global"):
            runs[mode] = run_spec(
                ExperimentSpec(
                    mode,
                    workload,
                    bipartite_ring(8),
                    protocol="momentum-tracking",
                    momentum_mode=mode,
                    max_iter=8,
                    seed=0,
                )
            )
        gossips = {
            mode: run.messages_sent // 2 for mode, run in runs.items()
        }
        assert runs["tracking"].bytes_sent == pytest.approx(
            4.0 * gossips["tracking"] * workload.update_size
        )
        assert runs["quasi-global"].bytes_sent == pytest.approx(
            2.0 * gossips["quasi-global"] * workload.update_size
        )

    def test_requires_bipartite_graph(self, workload):
        from repro.graphs import TopologyError

        with pytest.raises(TopologyError):
            run_spec(
                ExperimentSpec(
                    "bad",
                    workload,
                    ring_based(8),  # odd cycles: not bipartite
                    protocol="momentum-tracking",
                    max_iter=3,
                )
            )
