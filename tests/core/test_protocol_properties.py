"""Property-based tests of the protocol's central invariants.

The crown jewels: on random connected graphs with random heterogeneity
the realized iteration gaps must respect Theorems 1 and 2, runs must be
deadlock-free, and the token-queue invariant
``size == Iter(owner) - Iter(consumer) + max_ig`` must hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    HopCluster,
    HopConfig,
    STANDARD,
    backup_config,
    gap_bound_matrix,
    staleness_config,
)
from repro.graphs import Topology
from repro.scenarios.models import ComputeModel
from repro.ml import build_svm, synthetic_webspam
from repro.ml.optim import SGD


DATASET = synthetic_webspam(
    np.random.default_rng(0), n_train=128, n_test=32, n_features=8
)


@st.composite
def random_symmetric_topology(draw):
    """Random connected bidirectional topology with 3-7 nodes."""
    n = draw(st.integers(min_value=3, max_value=7))
    edges = set()
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        edges.add((parent, node))
        edges.add((node, parent))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b:
            edges.add((a, b))
            edges.add((b, a))
    return Topology(n, edges, name="random")


def run_cluster(topology, config, base_times, max_iter=12, seed=0):
    compute = ComputeModel(base_time=base_times)
    cluster = HopCluster(
        topology=topology,
        config=config,
        model_factory=lambda rng: build_svm(rng, 8),
        dataset=DATASET,
        optimizer=SGD(lr=0.5),
        compute_model=compute,
        batch_size=16,
        max_iter=max_iter,
        seed=seed,
        evaluate=False,
    )
    return cluster.run()


@settings(max_examples=15, deadline=None)
@given(
    topo=random_symmetric_topology(),
    speeds=st.lists(
        st.floats(min_value=0.01, max_value=0.5),
        min_size=7,
        max_size=7,
    ),
)
def test_standard_gaps_respect_theorem_1(topo, speeds):
    config = HopConfig(use_token_queues=False)
    run = run_cluster(topo, config, speeds[: topo.n])
    bounds = gap_bound_matrix(topo, "standard")
    assert run.gap.violations(bounds) == {}
    assert run.iterations_completed == [12] * topo.n


@settings(max_examples=15, deadline=None)
@given(
    topo=random_symmetric_topology(),
    speeds=st.lists(
        st.floats(min_value=0.01, max_value=0.5),
        min_size=7,
        max_size=7,
    ),
    max_ig=st.integers(min_value=1, max_value=5),
)
def test_token_gaps_respect_theorem_2(topo, speeds, max_ig):
    config = HopConfig(max_ig=max_ig)
    run = run_cluster(topo, config, speeds[: topo.n])
    bounds = gap_bound_matrix(topo, "standard+tokens", max_ig=max_ig)
    assert run.gap.violations(bounds) == {}


@settings(max_examples=10, deadline=None)
@given(
    topo=random_symmetric_topology(),
    speeds=st.lists(
        st.floats(min_value=0.01, max_value=0.5),
        min_size=7,
        max_size=7,
    ),
)
def test_backup_mode_deadlock_free_when_feasible(topo, speeds):
    min_in = min(topo.in_degree(i) for i in range(topo.n))
    if min_in < 3:
        return  # n_backup=1 would leave <2 required updates; skip case
    run = run_cluster(topo, backup_config(1, 3), speeds[: topo.n])
    assert run.iterations_completed == [12] * topo.n
    bounds = gap_bound_matrix(topo, "backup+tokens", max_ig=3)
    assert run.gap.violations(bounds) == {}


@settings(max_examples=10, deadline=None)
@given(
    topo=random_symmetric_topology(),
    speeds=st.lists(
        st.floats(min_value=0.01, max_value=0.5),
        min_size=7,
        max_size=7,
    ),
    s=st.integers(min_value=1, max_value=4),
)
def test_staleness_mode_deadlock_free(topo, speeds, s):
    run = run_cluster(topo, staleness_config(s, s + 2), speeds[: topo.n])
    assert run.iterations_completed == [12] * topo.n
    bounds = gap_bound_matrix(
        topo, "staleness+tokens", max_ig=s + 2, staleness=s
    )
    assert run.gap.violations(bounds) == {}


@settings(max_examples=8, deadline=None)
@given(
    topo=random_symmetric_topology(),
    seed=st.integers(min_value=0, max_value=100),
)
def test_determinism_across_runs(topo, seed):
    run_a = run_cluster(topo, STANDARD, [0.05] * topo.n, seed=seed)
    run_b = run_cluster(topo, STANDARD, [0.05] * topo.n, seed=seed)
    assert run_a.wall_time == run_b.wall_time
    assert np.array_equal(run_a.final_params, run_b.final_params)


@settings(max_examples=8, deadline=None)
@given(topo=random_symmetric_topology())
def test_consensus_improves_with_training(topo):
    """Gossip averaging must pull replicas together over time."""
    short = run_cluster(topo, STANDARD, [0.05] * topo.n, max_iter=2)
    long = run_cluster(topo, STANDARD, [0.05] * topo.n, max_iter=30)
    norm = float(np.linalg.norm(long.final_params)) + 1e-9
    assert long.consensus / norm < 1.0
