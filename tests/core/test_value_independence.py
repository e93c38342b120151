"""Control does not depend on parameter values.

Hop's claims are about control: the iteration gap, token capacities and
queue capacities never read a parameter (PAPER §4–5).  So a run whose
every gradient is a stub — :meth:`repro.ml.compute.ComputePool.stub`:
zero loss, zero gradient, no arithmetic, no batch draw — must keep every
simulated time and counter of the real run, bit for bit.  Checked here
for hop on each golden-grid family whose effects are timing only, the
CNN cell, and three variants under a straggler (the serial computation
graph; backup workers with skipping and receiver-iteration checks;
staleness mode), each against the same cell run for real.  The other
eight protocols are held to the same property on the same timing
families and the CNN through what every protocol reports (run
counters, worker stats, ledger rows but their losses), and all nine on
every churn, fault and compressed golden cell, hop under a permanent
crash as well: all 153 golden cells and one more, none of them
value-coupled.  Replayed cells honour the stub too: a
stubbed hop or parameter-server worker replays a zero gradient and never
draws a batch.
The last tests couple one simulated duration to the loss: on an eager
cell the comparison sees it, and on a replayed cell there is no loss to
read while the simulation runs.
"""

import math

import pytest

from repro.core.config import HopConfig, SkipConfig
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
from repro.protocols.registry import build_cluster, registered_protocols
from repro.sim.trace import LOSS

#: Golden-grid families that only shape timing: per-iteration slowdown
#: factors drawn from seeded streams.  Faults, churn, lossy or flaky links
#: and compression are not in the set.
TIMING_FAMILIES = (
    "none",
    "random",
    "straggler",
    "bursty",
    "tiered",
    "diurnal",
    "trace",
)

CELLS = {family: conformance_spec("hop", family) for family in TIMING_FAMILIES}
CELLS["cnn-none"] = cnn_conformance_spec("hop")
VARIANTS = {
    "serial-graph": HopConfig(computation_graph="serial"),
    "backup-skip": HopConfig(
        mode="backup",
        n_backup=1,
        max_ig=2,
        skip=SkipConfig(max_skip=2, trigger_lag=1),
        check_receiver_iteration=True,
    ),
    "staleness": HopConfig(mode="staleness", staleness=2),
}
for variant, config in VARIANTS.items():
    CELLS[f"straggler/{variant}"] = conformance_spec("hop", "straggler").with_(
        config=config, max_iter=12
    )


class LossCoupledDurations:
    """A compute model whose durations read the mean loss of the
    worker's ledger rows so far: the mutation a value-independent
    control plane must not contain.  ``read`` keeps each mean it read
    (NaN: no loss to read)."""

    def __init__(self, inner, worker):
        self._inner = inner
        self._worker = worker
        self.read = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def duration(self, wid, iteration):
        table = self._worker.ledger.table()
        losses = table[table[:, 0] == wid, LOSS]
        mean = float(losses.mean()) if losses.size else math.nan
        self.read.append(mean)
        scale = 1.0 + 1e-6 * mean if math.isfinite(mean) else 1.0
        return self._inner.duration(wid, iteration) * scale


def losses(run):
    """Every ledger row's loss."""
    return run.ledger.table()[:, LOSS]


def run_cell(spec, stub=False, couple=False):
    """Build and run ``spec``; with ``stub``, every model's gradients are
    stub tickets from the first event on (installed by wrapping
    ``_start``, after the workers and the pool exist)."""
    cluster = build_cluster(spec)
    start = cluster._start

    def start_then_patch(runtime):
        start(runtime)
        if stub:
            for wid in range(runtime.n_workers):
                runtime.compute.stub(wid)
        if couple:
            for worker in cluster._workers:
                worker.compute_model = LossCoupledDurations(
                    worker.compute_model, worker
                )

    cluster._start = start_then_patch
    return cluster, cluster.run()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_control_does_not_read_parameter_values(cell):
    real_cluster, real = run_cell(CELLS[cell])
    stub_cluster, stubbed = run_cell(CELLS[cell], stub=True)
    # The stub really replaced the math ...
    assert losses(real).max() > 0.0
    assert set(losses(stubbed).tolist()) == {0.0}
    assert real.final_params.tobytes() != stubbed.final_params.tobytes()
    pool, real_pool = stub_cluster.runtime.compute, real_cluster.runtime.compute
    assert pool.flushes == 0 and pool.tickets == real_pool.tickets
    assert (pool.levels, pool.rows) == (real_pool.levels, real_pool.rows)
    # ... and no simulated time or counter moved.
    assert control_fingerprint(stub_cluster, stubbed) == control_fingerprint(
        real_cluster, real
    )


#: Every protocol but hop (covered above, with its worker internals), on
#: the quiet family and the two slowdown families of the paper's figures
#: and on the other timing families and the CNN; then every protocol,
#: hop included, on the churn, fault and compressed golden cells, and hop
#: under a permanent crash.  None of these is value-coupled.
PROTOCOL_CELLS = {
    f"{protocol}/{family}": conformance_spec(protocol, family)
    for protocol in registered_protocols()
    if protocol != "hop"
    for family in TIMING_FAMILIES
}
for protocol in registered_protocols():
    if protocol != "hop":
        PROTOCOL_CELLS[f"{protocol}/cnn-none"] = cnn_conformance_spec(
            protocol
        )
    for family in sorted(CHURN_CELLS):
        PROTOCOL_CELLS[f"{protocol}/{family}"] = churn_conformance_spec(
            protocol, family
        )
    for scheme in sorted(COMPRESSION_CELLS):
        PROTOCOL_CELLS[f"{protocol}/compressed-{scheme}"] = (
            compression_conformance_spec(protocol, scheme)
        )
    for family in ("crash-restart", "flaky-net", "lossy-net"):
        PROTOCOL_CELLS[f"{protocol}/{family}"] = conformance_spec(
            protocol, family
        )
PROTOCOL_CELLS["hop/crash"] = conformance_spec("hop", "crash")


@pytest.mark.parametrize("cell", sorted(PROTOCOL_CELLS))
def test_every_protocol_keeps_its_control(cell):
    real_cluster, real = run_cell(PROTOCOL_CELLS[cell])
    stub_cluster, stubbed = run_cell(PROTOCOL_CELLS[cell], stub=True)
    assert losses(real).max() > 0.0
    assert set(losses(stubbed).tolist()) == {0.0}
    pool = stub_cluster.runtime.compute
    assert pool.flushes == 0 and pool.tickets == real_cluster.runtime.compute.tickets
    assert run_fingerprint(stubbed, values=False) == run_fingerprint(
        real, values=False
    )


def test_a_loss_dependent_duration_is_caught_on_the_eager_plane():
    """Mutation check: one duration that reads the loss, and the
    comparison above fails."""
    spec = CELLS["straggler/backup-skip"]
    real_cluster, real = run_cell(spec, couple=True)
    stub_cluster, stubbed = run_cell(spec, stub=True, couple=True)
    assert real_cluster.record is None  # skipping keeps the math eager
    real_print = control_fingerprint(real_cluster, real)
    stub_print = control_fingerprint(stub_cluster, stubbed)
    assert stub_print["wall_time"] != real_print["wall_time"]
    assert stub_print["ledger"] != real_print["ledger"]
    # Uncoupled, the stubbed run is the real one's control.
    assert stub_print == control_fingerprint(*run_cell(spec, stub=True))


def test_no_loss_exists_while_a_replayed_run_simulates():
    """On a replayed cell the losses are the replay's output: a duration
    that reads one has nothing to read, and the eager plane has one from
    each worker's second iteration on."""
    cluster, run = run_cell(CELLS["random"], couple=True)
    assert cluster.record is not None
    reads = [mean for w in cluster._workers for mean in w.compute_model.read]
    assert len(reads) == len(run.ledger) and all(map(math.isnan, reads))
    assert not any(map(math.isnan, losses(run)))
    eager, _ = run_cell(CELLS["straggler/backup-skip"], couple=True)
    for worker in eager._workers:
        first, *rest = worker.compute_model.read
        assert math.isnan(first) and rest and all(map(math.isfinite, rest))


def test_a_stubbed_worker_replays_a_zero_gradient_with_no_draw():
    spec = CELLS["random"]
    cluster = build_cluster(spec)
    start = cluster._start

    def start_then_stub(runtime):
        start(runtime)
        runtime.compute.stub(1)

    cluster._start = start_then_stub
    run = cluster.run()
    assert cluster.record is not None
    stubbed, real = cluster._workers[1], cluster._workers[0]
    assert stubbed.batcher.draws == 0  # never drew a batch
    assert real.batcher.draws > 0
    by_worker = run.ledger.column("loss", spec.topology.n)
    assert by_worker[1].tolist() == [0.0] * spec.max_iter
    assert by_worker[0].max() > 0.0
    pool = cluster.runtime.compute
    assert (pool.tickets, pool.levels, pool.rows) == (
        0,
        spec.max_iter,
        spec.max_iter * spec.topology.n,
    )


@pytest.mark.parametrize("protocol", ["ps-async", "ps-bsp", "ps-ssp"])
def test_a_stubbed_ps_worker_replays_a_zero_gradient_with_no_draw(protocol):
    spec = conformance_spec(protocol, "random")
    cluster = build_cluster(spec)
    start = cluster._start

    def start_then_stub(runtime):
        start(runtime)
        runtime.compute.stub(1)

    cluster._start = start_then_stub
    run = cluster.run()
    assert cluster.record is not None
    stubbed, real = cluster._batchers[1], cluster._batchers[0]
    assert stubbed.draws == 0  # never drew a batch
    assert real.draws > 0
    by_worker = run.ledger.column("loss", spec.topology.n)
    assert by_worker[1].tolist() == [0.0] * spec.max_iter
    assert by_worker[0].max() > 0.0
    pool = cluster.runtime.compute
    assert (pool.tickets, pool.flushes) == (0, 0)
    assert pool.rows == spec.max_iter * spec.topology.n
