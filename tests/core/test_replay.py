"""Record-then-replay: a static hop, NOTIFY-ACK or parameter-server
run's arithmetic after the simulation.

A replayable run does control only while it simulates and evaluates
its dependency record level by level afterwards
(:func:`repro.core.planes.replay`).  The
oracle is the same run on the eager plane, reached through the
cluster's private ``_eager`` override: every control sample, every
value and the whole ``run_to_dict`` must be equal, on specs drawn over
protocol, topology (a chain's in-degree is ragged), mode, computation
graph, slowdown, ``max_ig`` and size (NOTIFY-ACK ignores the last
config fields), and for each PS mode over the timing-only scenario
families at 4, 16 and 128 workers.  Then mutation checks that the
comparison sees one reordered reduce, one reordered BSP quorum and one
reordered batch draw, which plane each golden hop, NOTIFY-ACK and PS
cell takes, and what an eligible worker does not allocate: a replaying
run builds one model (and a witness) where an eager one builds a
replica per worker, and draws each worker's batches in blocks of its
known horizon.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.horizon import Horizon
from repro.core.config import HopConfig
from repro.core.planes import Record, RecordPlane
from repro.graphs import bipartite_ring, chain, hierarchical, ring_based, torus
from repro.harness.golden import (
    CHURN_CELLS,
    COMPRESSION_CELLS,
    churn_conformance_spec,
    cnn_conformance_spec,
    compression_conformance_spec,
    conformance_spec,
    control_fingerprint,
    golden_fingerprint,
    run_fingerprint,
)
from repro.harness.io import run_to_dict
from repro.protocols.registry import build_cluster, registered_protocols
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
    lambda protocol, topology, config, family, max_iter, seed: conformance_spec(
        protocol, family, seed=seed
    ).with_(topology=topology, config=config, max_iter=max_iter),
    st.sampled_from(["hop", "notify_ack"]),
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
    assert replayed_cluster.record is not None
    assert eager_cluster.record is None
    assert prints(replayed_cluster, replayed) == prints(eager_cluster, eager)
    pool = replayed_cluster.runtime.compute
    assert (pool.tickets, pool.rows) == (0, spec.topology.n * spec.max_iter)


def swap_two_senders(cluster):
    """Reorder one recorded reduce: worker 0's iteration-1 updates
    arrive second-and-third swapped."""
    record = cluster.record
    # A hop combine lists its own evaluation (gid 1 is worker 0's
    # iteration 1), then its updates in arrival order.
    start = 0
    for size in record.sizes:
        if record.inputs[start] == 1:
            break
        start += size
    assert record.inputs[start] == 1 and size - 1 >= 3
    inputs = record.inputs
    inputs[start + 2], inputs[start + 3] = inputs[start + 3], inputs[start + 2]


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


PS_PROTOCOLS = ("ps-async", "ps-bsp", "ps-ssp")

#: Scenario families that only shape timing (as in
#: ``tests/core/test_value_independence.py``).
TIMING_FAMILIES = (
    "none",
    "random",
    "straggler",
    "bursty",
    "tiered",
    "diurnal",
    "trace",
)


@pytest.mark.parametrize("n", [4, 16, 128])
@pytest.mark.parametrize("family", TIMING_FAMILIES)
@pytest.mark.parametrize("protocol", PS_PROTOCOLS)
def test_ps_replay_equals_the_eager_plane_bitwise(protocol, family, n):
    spec = conformance_spec(protocol, family).with_(topology=ring_based(n))
    replayed_cluster, replayed = run_on(spec, eager=False)
    eager_cluster, eager = run_on(spec, eager=True)
    assert isinstance(replayed_cluster.record, Record)
    assert isinstance(replayed_cluster._plane, RecordPlane)
    assert eager_cluster.record is None
    assert run_fingerprint(replayed) == run_fingerprint(eager)
    assert run_to_dict(replayed) == run_to_dict(eager)
    pool = replayed_cluster.runtime.compute
    assert (pool.tickets, pool.rows) == (0, n * spec.max_iter)
    assert eager_cluster.runtime.compute.tickets == n * spec.max_iter


GOLDEN = json.loads(
    (Path(__file__).parents[1] / "scenarios" / "golden_stats.json").read_text()
)["cells"]


def quorums_in_wid_order(cluster):
    """Fold each recorded BSP quorum in wid order instead of the order
    the gradients reached ``pending``."""
    record = cluster.record
    start = 0
    for size in record.sizes:
        quorum = sorted(record.inputs[start : start + size])
        record.inputs[start : start + size] = type(record.inputs)("i", quorum)
        start += size


class LevelOrderRows:
    """Each worker's rows drawn once per replay level, a row per call of
    the replaced per-worker :class:`~oracles.horizon.Horizon`."""

    def __init__(self, horizons):
        self.x, self.y = horizons.x, horizons.y
        self.batch_size = horizons.batch_size
        self.oracles = [
            Horizon(batcher, horizons.horizon) for batcher in horizons.batchers
        ]

    def rows(self, wids, ks):
        present = set(wids.tolist())
        for wid, oracle in enumerate(self.oracles):
            if wid not in present:
                oracle.next_indices()
        return np.stack([self.oracles[wid].next_indices() for wid in wids])


def draws_in_level_order(cluster):
    """Draw every worker's batch once per replay level (a level is an
    iteration in hop's replay) instead of gathering batch ``k`` for the
    worker's iteration ``k``: a worker that sits a level out skips a
    batch."""
    pool = cluster.runtime.compute
    evaluate_rows = pool.evaluate_rows
    level_order = []

    def once_per_level(wids, ks, params, horizons):
        if not level_order:
            level_order.append(LevelOrderRows(horizons))
        return evaluate_rows(wids, ks, params, level_order[0])

    pool.evaluate_rows = once_per_level


@pytest.mark.parametrize(
    "cell, mutate",
    [
        ("ps-bsp/straggler", quorums_in_wid_order),
        ("ps-async/random", draws_in_level_order),
    ],
    ids=["bsp-quorum-order", "per-worker-draw-order"],
)
def test_the_golden_cell_sees_one_ps_mutation(cell, mutate):
    """Mutation checks: the quorum's ``np.mean`` runs over the recorded
    ``pending`` order, and each worker draws its batches in ``k``
    order; either reordering fails the cell's golden recording."""
    protocol, family = cell.split("/")
    spec = conformance_spec(protocol, family)
    _, replayed = run_on(spec, eager=False)
    assert golden_fingerprint(replayed) == GOLDEN[cell]
    mutated_cluster, mutated = run_on(spec, eager=False, before_replay=mutate)
    assert mutated_cluster.record is not None
    assert golden_fingerprint(mutated) != GOLDEN[cell]
    # Control is untouched: only the values moved.
    assert run_fingerprint(mutated, values=False) == run_fingerprint(
        replayed, values=False
    )


def golden_cells(protocol):
    """Which plane each golden cell of a replaying protocol takes, and
    why the eager ones are."""
    return {
        **{
            f"{protocol}/{family}": (conformance_spec(protocol, family), True)
            for family in registered_scenarios(universal_only=True)
            if family != "crash-restart"
        },
        # Hop's re-sync copies a peer's parameters mid-run; NOTIFY-ACK
        # and the PS have no native crash, their downtime is in the
        # compute model.
        f"{protocol}/crash-restart": (
            conformance_spec(protocol, "crash-restart"),
            protocol != "hop",
        ),
        # Hop's re-sync copies a peer's parameters; the PS's sharded
        # failover scrubs inbox entries.
        **{
            f"{protocol}/{family}": (
                churn_conformance_spec(protocol, family),
                False,
            )
            for family in CHURN_CELLS
        },
        # Error feedback is stateful per worker.
        **{
            f"{protocol}/compressed-{scheme}": (
                compression_conformance_spec(protocol, scheme),
                False,
            )
            for scheme in COMPRESSION_CELLS
        },
        # The CNN offers no stacked kernel: per-ticket submission order.
        f"{protocol}/cnn-none": (cnn_conformance_spec(protocol), False),
    }


GOLDEN_CELLS = {
    cell: plane
    for protocol in ("hop", "notify_ack", *PS_PROTOCOLS)
    for cell, plane in golden_cells(protocol).items()
}


def takes_record_plane(cluster):
    if cluster.protocol in PS_PROTOCOLS:
        return [isinstance(cluster._plane, RecordPlane)]
    return [isinstance(worker.plane, RecordPlane) for worker in cluster._workers]


@pytest.mark.parametrize("cell", sorted(GOLDEN_CELLS))
def test_each_golden_cell_takes_its_plane(cell):
    spec, replays = GOLDEN_CELLS[cell]
    cluster = build_cluster(spec)
    cluster.run()
    pool = cluster.runtime.compute
    assert (cluster.record is not None) == replays
    assert (pool.tickets == 0) == replays
    assert (pool.rows > 0) == replays
    assert all(record == replays for record in takes_record_plane(cluster))


def test_every_golden_replaying_protocol_cell_is_pinned():
    replaying = {"hop", "notify_ack", *PS_PROTOCOLS}
    pinned = {key for key in GOLDEN if key.split("/")[0] in replaying}
    assert set(GOLDEN_CELLS) == pinned


def test_a_skip_policy_keeps_the_math_in_the_loop():
    from repro.core.config import SkipConfig

    spec = conformance_spec("hop", "straggler").with_(
        config=HopConfig(
            mode="backup", n_backup=1, max_ig=2, skip=SkipConfig(max_skip=2)
        )
    )
    cluster = build_cluster(spec)
    cluster.run()
    assert cluster.record is None and cluster.runtime.compute.tickets > 0


#: Traced bytes per worker at the end of ``env.run()`` for hop/1024 x 4
#: iterations (smoke SVM, light trace, tracemalloc started before
#: ``run()``), measured on the eager-only parent: 25,838 B.
EAGER_BYTES_PER_WORKER = 25_838


def test_an_eligible_worker_allocates_no_parameter_scratch(monkeypatch):
    n = 1024
    spec = conformance_spec("hop", "none", seed=0).with_(
        topology=ring_based(n), max_iter=4
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
                worker.model,
                worker.optimizer,
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
    assert cluster.record is not None
    # While it simulated, no worker held a parameter-sized array, a
    # model or an optimizer ...
    assert all(
        state == (None, None, None, None) for state in seen["workers"]
    )
    # ... so its per-worker footprint is below the eager one.
    assert seen["bytes"] / n <= EAGER_BYTES_PER_WORKER
    # After the replay every worker has its values.
    assert all(
        worker.final_params.shape == (cluster.runtime.model.dim,)
        for worker in cluster._workers
    )
    assert np.isfinite(cluster._final_param_stack(cluster.runtime)).all()


def factory_calls(spec, eager=False):
    """``model_factory`` calls of one run of ``spec``, and its cluster."""
    cluster = build_cluster(spec)
    cluster._eager = eager
    factory = cluster.model_factory
    calls = []

    def counting(rng):
        calls.append(rng)
        return factory(rng)

    cluster.model_factory = counting
    cluster.run()
    return len(calls), cluster


def sized(protocol, n, max_iter=3):
    topology = (bipartite_ring if protocol == "adpsgd" else ring_based)(n)
    return conformance_spec(protocol, "none").with_(
        topology=topology, max_iter=max_iter
    )


@pytest.mark.parametrize(
    "spec, eager, calls",
    [
        # A replaying run: its one model and the determinism witness.
        (sized("hop", 64), False, 2),
        (sized("notify_ack", 16), False, 2),
        (sized("ps-async", 128), False, 2),
        # An eager run: one replica per worker.
        (sized("adpsgd", 16), False, 16),
        (sized("allreduce", 8), False, 8),
        (cnn_conformance_spec("hop"), False, 4),
        (sized("hop", 64), True, 64),
    ],
    ids=[
        "hop-64",
        "notify_ack-16",
        "ps-async-128",
        "adpsgd-16",
        "allreduce-8",
        "hop-cnn-4",
        "hop-64-eager",
    ],
)
def test_model_factory_calls(spec, eager, calls):
    made, cluster = factory_calls(spec, eager=eager)
    assert made == calls
    replays = calls == 2
    assert (cluster.record is not None) == replays
    assert len(cluster.runtime.models) == (0 if replays else calls)


@pytest.mark.parametrize("protocol", registered_protocols())
def test_a_nondeterministic_factory_raises_on_every_protocol(protocol):
    cluster = build_cluster(conformance_spec(protocol, "none"))
    factory = cluster.model_factory
    built = []

    def drifting(rng):
        model = factory(rng)
        if built:  # every model after the first starts elsewhere
            model.set_params(model.get_params() + 1e-3)
        built.append(model)
        return model

    cluster.model_factory = drifting
    with pytest.raises(ValueError, match="must be deterministic"):
        cluster.run()


def test_a_replaying_worker_draws_its_horizon_in_prefetch_blocks():
    """hop/64 x 40: each worker's 40 batches are two ``integers()``
    calls, 32 rows and 8, where an open-ended batcher makes six (1, 2,
    4, 8, 16 and 32 rows); the batches are the eager run's."""
    spec = sized("hop", 64, max_iter=40)
    cluster, run = run_on(spec, eager=False)
    assert cluster.record is not None
    assert [w.batcher.draws for w in cluster._workers] == [2] * 64
    eager_cluster, eager_run = run_on(spec, eager=True)
    assert [w.batcher.draws for w in eager_cluster._workers] == [6] * 64
    assert run_fingerprint(run) == run_fingerprint(eager_run)
