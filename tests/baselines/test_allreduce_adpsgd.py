"""Tests for ring all-reduce and AD-PSGD baselines."""

import numpy as np
import pytest

from repro.baselines import ADPSGDCluster, RingAllReduceCluster
from repro.graphs import TopologyError, bipartite_ring, ring
from repro.harness.spec import run_spec
from repro.harness.golden import CHURN_CELLS, churn_conformance_spec
from repro.scenarios.models import ComputeModel, DeterministicSlowdown
from repro.ml import build_svm, synthetic_webspam
from repro.ml.optim import SGD
from repro.net.links import Link


N_FEATURES = 24


@pytest.fixture(scope="module")
def dataset():
    return synthetic_webspam(
        np.random.default_rng(0), n_train=384, n_test=128, n_features=N_FEATURES
    )


def make_allreduce(dataset, n=4, max_iter=20, **kwargs):
    kwargs.setdefault("compute_model", ComputeModel(base_time=0.05, n_workers=n))
    kwargs.setdefault("optimizer", SGD(lr=1.0, momentum=0.9))
    kwargs.setdefault("update_size", 1.0)
    return RingAllReduceCluster(
        n,
        lambda rng: build_svm(rng, N_FEATURES),
        dataset,
        max_iter=max_iter,
        seed=1,
        **kwargs,
    )


def make_adpsgd(dataset, n=6, max_iter=20, **kwargs):
    kwargs.setdefault("compute_model", ComputeModel(base_time=0.05, n_workers=n))
    kwargs.setdefault("optimizer", SGD(lr=1.0, momentum=0.9))
    kwargs.setdefault("update_size", 0.5)
    return ADPSGDCluster(
        bipartite_ring(n),
        lambda rng: build_svm(rng, N_FEATURES),
        dataset,
        max_iter=max_iter,
        seed=1,
        **kwargs,
    )


class TestRingAllReduce:
    def test_converges(self, dataset):
        run = make_allreduce(dataset, max_iter=40).run()
        _, losses = run.smoothed_loss_series(window=16)
        assert losses[-1] < losses[0]

    def test_lockstep_gap_zero(self, dataset):
        run = make_allreduce(dataset).run()
        assert run.gap.max_observed() == 0.0

    def test_straggler_gates_the_ring(self, dataset):
        fast = make_allreduce(dataset).run()
        slow = make_allreduce(
            dataset,
            compute_model=ComputeModel(
                base_time=0.05,
                n_workers=4,
                slowdown=DeterministicSlowdown({0: 4.0}),
            ),
        ).run()
        assert slow.wall_time > 2.0 * fast.wall_time

    def test_communication_time_formula(self, dataset):
        cluster = make_allreduce(dataset, link=Link(latency=0.0, bandwidth=10.0))
        # 2 * (n-1) steps of (M/n) each: 2*3*(1/4)/10 = 0.15.
        assert cluster.communication_time(1.0) == pytest.approx(0.15)

    def test_bandwidth_optimality_vs_naive(self, dataset):
        """Chunked ring beats whole-model relay for large n."""
        cluster = make_allreduce(dataset, link=Link(latency=0.0, bandwidth=10.0))
        naive = 2 * (4 - 1) * (1.0 / 10.0)  # whole model each hop
        assert cluster.communication_time(1.0) < naive

    def test_needs_two_workers(self, dataset):
        with pytest.raises(ValueError):
            make_allreduce(dataset, n=1)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: under churn the ring stamps its members' "
    "transitions one at a time, a transient gap of 1 (one shared stamp "
    "per round, as a static round draws, would not). The fix "
    "re-pins the allreduce/churn, allreduce/churn-poisson and "
    "allreduce/churn-trace golden cells and the 16-worker churn/allreduce "
    "fingerprint of bench/expected.json (service-cold, service-warm).",
)
@pytest.mark.parametrize("family", sorted(CHURN_CELLS))
def test_lockstep_allreduce_reports_no_gap_under_churn(family):
    """The ring is lockstep with or without churn: every live member
    enters round k at the same instant, so no gap is ever observed."""
    run = run_spec(churn_conformance_spec("allreduce", family))
    assert run.gap.max_observed() == 0.0


class TestADPSGD:
    def test_converges(self, dataset):
        run = make_adpsgd(dataset, max_iter=40).run()
        _, losses = run.smoothed_loss_series(window=16)
        assert losses[-1] < losses[0]

    def test_requires_bipartite_graph(self, dataset):
        with pytest.raises(TopologyError):
            ADPSGDCluster(
                ring(5),  # odd ring: not bipartite
                lambda rng: build_svm(rng, N_FEATURES),
                dataset,
            )

    def test_gossip_happens(self, dataset):
        run = make_adpsgd(dataset).run()
        assert "gossips=" in run.config_description
        gossips = int(run.config_description.split("gossips=")[1].rstrip(")"))
        assert gossips > 0

    def test_straggler_does_not_block_fast_workers(self, dataset):
        run = make_adpsgd(
            dataset,
            compute_model=ComputeModel(
                base_time=0.05,
                n_workers=6,
                slowdown=DeterministicSlowdown({1: 10.0}),
            ),
        ).run()
        assert run.gap.max_observed() > 3.0

    def test_deterministic(self, dataset):
        a = make_adpsgd(dataset).run()
        b = make_adpsgd(dataset).run()
        assert a.wall_time == b.wall_time
        assert np.array_equal(a.final_params, b.final_params)

    def test_workers_converge_toward_consensus(self, dataset):
        run = make_adpsgd(dataset, max_iter=60).run()
        norm = float(np.linalg.norm(run.final_params)) + 1e-9
        assert run.consensus / norm < 0.5
