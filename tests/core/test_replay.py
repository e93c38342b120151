"""Record-then-replay: a static hop run's arithmetic after the simulation.

A replayable hop run does control only while it simulates and evaluates
its recorded schedule level by level afterwards
(:mod:`repro.core.planes`).  The oracle is the same run on the eager
plane, reached through the cluster's private ``_eager`` override: every
control sample, every value and the whole ``run_to_dict`` must be equal,
on specs drawn over topology (a chain's in-degree is ragged), mode,
computation graph, slowdown, ``max_ig`` and size.  Then a mutation check
that the comparison sees one reordered reduce, which plane each golden
hop cell takes, and what an eligible worker does not allocate.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import HopConfig
from repro.core.planes import RecordPlane
from repro.graphs import chain, hierarchical, ring_based, torus
from repro.harness.golden import (
    CHURN_CELLS,
    COMPRESSION_CELLS,
    churn_conformance_spec,
    cnn_conformance_spec,
    compression_conformance_spec,
    conformance_spec,
    control_fingerprint,
    run_fingerprint,
)
from repro.harness.io import run_to_dict
from repro.protocols.base import LIGHT_TRACE
from repro.protocols.registry import build_cluster
from repro.scenarios import registered_scenarios
from repro.sim.engine import Environment


def run_on(spec, eager, before_replay=None):
    cluster = build_cluster(spec)
    cluster._eager = eager
    if before_replay is not None:
        replay = cluster._after_simulation

        def patched(runtime):
            before_replay(cluster)
            replay(runtime)

        cluster._after_simulation = patched
    return cluster, cluster.run()


def prints(cluster, run):
    return (
        run_fingerprint(run),
        control_fingerprint(cluster, run),
        run_to_dict(run),
    )


@st.composite
def topologies(draw):
    kind = draw(st.sampled_from(["ring", "chain", "torus", "hierarchical"]))
    if kind == "ring":
        return ring_based(2 * draw(st.integers(2, 16)))
    if kind == "chain":
        return chain(draw(st.integers(4, 32)))
    if kind == "torus":
        rows = draw(st.integers(2, 5))
        return torus(rows, draw(st.integers(2, 32 // rows)))
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=6))
    if sum(sizes) < 4:
        sizes.append(4 - sum(sizes))
    return hierarchical(sizes, shared_gateway=draw(st.booleans()))


@st.composite
def configs(draw):
    mode = draw(
        st.sampled_from(["standard", "backup", "weighted", "uniform"])
    )
    fields = {
        "max_ig": draw(st.integers(1, 4)),
        "computation_graph": draw(st.sampled_from(["parallel", "serial"])),
    }
    if mode == "backup":
        fields.update(mode="backup", n_backup=1)
    elif mode != "standard":
        fields.update(
            mode="staleness",
            staleness=draw(st.integers(1, 3)),
            stale_reduce=mode,
        )
    return HopConfig(**fields)


static_specs = st.builds(
    lambda topology, config, family, max_iter, seed: conformance_spec(
        "hop", family, seed=seed
    ).with_(topology=topology, config=config, max_iter=max_iter),
    topologies(),
    configs(),
    st.sampled_from(["none", "random", "straggler"]),
    st.integers(1, 8),
    st.integers(0, 2**16),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(static_specs)
def test_replay_equals_the_eager_plane_bitwise(spec):
    replayed_cluster, replayed = run_on(spec, eager=False)
    eager_cluster, eager = run_on(spec, eager=True)
    assert replayed_cluster.schedule is not None
    assert eager_cluster.schedule is None
    assert prints(replayed_cluster, replayed) == prints(eager_cluster, eager)
    pool = replayed_cluster.runtime.compute
    assert (pool.tickets, pool.rows) == (0, spec.topology.n * spec.max_iter)


def swap_two_senders(cluster):
    """Reorder one recorded reduce: worker 0's iteration-1 updates
    arrive second-and-third swapped."""
    plane = cluster.schedule.planes[0]
    start = plane.counts[0]
    assert plane.counts[1] >= 3
    senders = plane.senders
    senders[start + 1], senders[start + 2] = (
        senders[start + 2],
        senders[start + 1],
    )


def test_the_comparison_sees_one_reordered_reduce():
    """Mutation check: the mean's ``+=`` order is part of the bits."""
    spec = conformance_spec("hop", "random").with_(
        topology=ring_based(8), max_iter=4
    )
    eager_cluster, eager = run_on(spec, eager=True)
    replayed_cluster, replayed = run_on(spec, eager=False)
    assert prints(replayed_cluster, replayed) == prints(eager_cluster, eager)
    mutated_cluster, mutated = run_on(
        spec, eager=False, before_replay=swap_two_senders
    )
    assert run_fingerprint(mutated) != run_fingerprint(eager)
    # Control is untouched: only the values moved.
    assert control_fingerprint(mutated_cluster, mutated) == (
        control_fingerprint(eager_cluster, eager)
    )


#: Which plane each golden hop cell takes, and why the eager ones are.
GOLDEN_HOP_CELLS = {
    **{
        f"hop/{family}": (conformance_spec("hop", family), True)
        for family in registered_scenarios(universal_only=True)
        if family != "crash-restart"
    },
    # Re-sync copies a peer's parameters mid-run.
    "hop/crash-restart": (conformance_spec("hop", "crash-restart"), False),
    **{
        f"hop/{family}": (churn_conformance_spec("hop", family), False)
        for family in CHURN_CELLS
    },
    # Error feedback on Send is stateful.
    **{
        f"hop/compressed-{scheme}": (
            compression_conformance_spec("hop", scheme),
            False,
        )
        for scheme in COMPRESSION_CELLS
    },
    # The CNN offers no stacked kernel: per-ticket submission order.
    "hop/cnn-none": (cnn_conformance_spec("hop"), False),
}


@pytest.mark.parametrize("cell", sorted(GOLDEN_HOP_CELLS))
def test_each_golden_hop_cell_takes_its_plane(cell):
    spec, replays = GOLDEN_HOP_CELLS[cell]
    cluster = build_cluster(spec)
    cluster.run()
    pool = cluster.runtime.compute
    assert (cluster.schedule is not None) == replays
    assert (pool.tickets == 0) == replays
    assert (pool.rows > 0) == replays
    assert all(
        isinstance(worker.plane, RecordPlane) == replays
        for worker in cluster._workers
    )


def test_every_golden_hop_cell_is_pinned():
    golden = Path(__file__).parents[1] / "scenarios" / "golden_stats.json"
    cells = json.loads(golden.read_text())["cells"]
    hop_cells = {key for key in cells if key.startswith("hop/")}
    assert set(GOLDEN_HOP_CELLS) == hop_cells


def test_a_skip_policy_keeps_the_math_in_the_loop():
    from repro.core.config import SkipConfig

    spec = conformance_spec("hop", "straggler").with_(
        config=HopConfig(
            mode="backup", n_backup=1, max_ig=2, skip=SkipConfig(max_skip=2)
        )
    )
    cluster = build_cluster(spec)
    cluster.run()
    assert cluster.schedule is None and cluster.runtime.compute.tickets > 0


#: Traced bytes per worker at the end of ``env.run()`` for hop/1024 x 4
#: iterations (smoke SVM, light trace, tracemalloc started before
#: ``run()``), measured on the eager-only parent: 25,838 B.
EAGER_BYTES_PER_WORKER = 25_838


def test_an_eligible_worker_allocates_no_parameter_scratch(monkeypatch):
    n = 1024
    spec = conformance_spec("hop", "none", seed=0).with_(
        topology=ring_based(n), max_iter=4, trace_channels=LIGHT_TRACE
    )
    cluster = build_cluster(spec)
    seen = {}
    simulate = Environment.run

    def run_then_measure(env, *args, **kwargs):
        result = simulate(env, *args, **kwargs)
        seen["bytes"] = tracemalloc.get_traced_memory()[0]
        seen["workers"] = [
            (
                worker.final_params,
                worker.current_params,
                worker.losses,
                worker.optimizer._velocity,
                worker.optimizer._scratch,
            )
            for worker in cluster._workers
        ]
        return result

    monkeypatch.setattr(Environment, "run", run_then_measure)
    tracemalloc.start()
    try:
        cluster.run()
    finally:
        tracemalloc.stop()
    assert cluster.schedule is not None
    # While it simulated, no worker held a parameter-sized array ...
    assert all(
        state == (None, None, None, None, None) for state in seen["workers"]
    )
    # ... so its per-worker footprint is below the eager one.
    assert seen["bytes"] / n <= EAGER_BYTES_PER_WORKER
    # After the replay every worker has its values.
    assert all(
        worker.final_params.shape == (cluster.runtime.models[0].dim,)
        for worker in cluster._workers
    )
    assert np.isfinite(cluster._final_param_stack(cluster.runtime)).all()
