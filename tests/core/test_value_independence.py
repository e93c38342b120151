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
eight protocols are held to the same property on their quiet, random
and straggler cells through what every protocol reports (run counters,
worker stats, traced iteration timestamps).  The last test couples one
simulated duration to the loss and shows the comparison sees it.
"""

import pytest

from repro.core.config import HopConfig, SkipConfig
from repro.harness.golden import cnn_conformance_spec, conformance_spec
from repro.protocols.registry import build_cluster, registered_protocols

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
    """A compute model whose durations read the worker's running loss:
    the mutation a value-independent control plane must not contain."""

    def __init__(self, inner, worker):
        self._inner = inner
        self._worker = worker

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def duration(self, wid, iteration):
        scale = 1.0 + 1e-6 * self._worker.losses.mean
        return self._inner.duration(wid, iteration) * scale


def run_cell(spec, stub=False, couple=False):
    """Build and run ``spec``; with ``stub``, every model's gradients are
    stub tickets from the first event on (installed by wrapping
    ``_start``, after the workers and the pool exist)."""
    cluster = build_cluster(spec)
    start = cluster._start

    def start_then_patch(runtime):
        start(runtime)
        if stub:
            for model in runtime.models:
                runtime.compute.stub(model)
        if couple:
            for worker in cluster._workers:
                worker.compute_model = LossCoupledDurations(
                    worker.compute_model, worker
                )

    cluster._start = start_then_patch
    return cluster, cluster.run()


def stat(accumulator):
    return (
        accumulator.count,
        accumulator.mean.hex(),
        accumulator._m2.hex(),
        accumulator.min.hex(),
        accumulator.max.hex(),
    )


def control_fingerprint(cluster, run):
    """Every simulated time and counter a run reports, as exact bits."""
    return {
        "wall_time": float(run.wall_time).hex(),
        "iterations_completed": list(run.iterations_completed),
        "iterations_skipped": list(run.iterations_skipped),
        "messages_sent": run.messages_sent,
        "bytes_sent": float(run.bytes_sent).hex(),
        "events_scheduled": run.events_scheduled,
        "max_gap": float(run.gap.max_observed()).hex(),
        "workers": [
            {
                "iteration_durations": stat(worker.iteration_durations),
                "recv_wait": stat(worker.recv_wait),
                "token_wait": stat(worker.token_wait),
                "counters": (
                    worker.n_jumps,
                    worker.n_suppressed_sends,
                    worker.n_extra_updates,
                    worker.n_staleness_blocks,
                ),
            }
            for worker in cluster._workers
        ],
    }


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_control_does_not_read_parameter_values(cell):
    real_cluster, real = run_cell(CELLS[cell])
    stub_cluster, stubbed = run_cell(CELLS[cell], stub=True)
    # The stub really replaced the math ...
    assert max(w.losses.max for w in real_cluster._workers) > 0.0
    assert all(w.losses.max == 0.0 for w in stub_cluster._workers)
    assert real.final_params.tobytes() != stubbed.final_params.tobytes()
    pool = stub_cluster.runtime.compute
    assert pool.flushes == 0 and pool.tickets == real_cluster.runtime.compute.tickets
    # ... and no simulated time or counter moved.
    assert control_fingerprint(stub_cluster, stubbed) == control_fingerprint(
        real_cluster, real
    )


#: Every protocol but hop (covered above, with its worker internals), on
#: the quiet family and the two slowdown families of the paper's figures.
PROTOCOL_CELLS = {
    f"{protocol}/{family}": conformance_spec(protocol, family)
    for protocol in registered_protocols()
    if protocol != "hop"
    for family in ("none", "random", "straggler")
}


def run_fingerprint(run):
    """The control fingerprint any protocol reports, as exact bits: run
    counters, each worker's stats but its loss, and every traced
    iteration's timestamp and duration."""
    return {
        "wall_time": float(run.wall_time).hex(),
        "iterations_completed": list(run.iterations_completed),
        "iterations_skipped": list(run.iterations_skipped),
        "messages_sent": run.messages_sent,
        "bytes_sent": float(run.bytes_sent).hex(),
        "bytes_attempted": float(run.bytes_attempted).hex(),
        "control_bytes": float(run.control_bytes).hex(),
        "events_scheduled": run.events_scheduled,
        "max_gap": float(run.gap.max_observed()).hex(),
        "worker_stats": [
            {
                key: float(value).hex() if isinstance(value, float) else value
                for key, value in stats.items()
                if key != "loss_mean"
            }
            for stats in run.worker_stats
        ],
        "traced": {
            key: [
                (float(time).hex(), float(value).hex())
                if key.startswith("duration/")
                else float(time).hex()
                for time, value in run.tracer.raw(key)
            ]
            for key in run.tracer.keys()
        },
    }


@pytest.mark.parametrize("cell", sorted(PROTOCOL_CELLS))
def test_every_protocol_keeps_its_control(cell):
    real_cluster, real = run_cell(PROTOCOL_CELLS[cell])
    stub_cluster, stubbed = run_cell(PROTOCOL_CELLS[cell], stub=True)
    def traced_losses(run):
        return [
            value
            for key in run.tracer.keys()
            if key.startswith("loss/")
            for _, value in run.tracer.raw(key)
        ]

    assert max(traced_losses(real)) > 0.0
    assert set(traced_losses(stubbed)) == {0.0}
    pool = stub_cluster.runtime.compute
    assert pool.flushes == 0 and pool.tickets == real_cluster.runtime.compute.tickets
    assert run_fingerprint(stubbed) == run_fingerprint(real)


def test_a_loss_dependent_duration_is_caught():
    """Mutation check: one duration that reads the loss, and the
    comparison above fails."""
    spec = CELLS["random"]
    real_cluster, real = run_cell(spec, couple=True)
    stub_cluster, stubbed = run_cell(spec, stub=True, couple=True)
    real_print = control_fingerprint(real_cluster, real)
    stub_print = control_fingerprint(stub_cluster, stubbed)
    assert stub_print["wall_time"] != real_print["wall_time"]
    assert stub_print["workers"] != real_print["workers"]
    # Uncoupled, the stubbed run is the real one's control.
    assert stub_print == control_fingerprint(*run_cell(spec, stub=True))
