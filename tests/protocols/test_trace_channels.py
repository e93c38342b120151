"""A run's results do not depend on its tracer allowlist.

Every protocol logs ``loss/<wid>`` through a pre-bound channel
(``HopWorker``'s own, or ``ProtocolRuntime.log_loss``) and records each
iteration's times in the always-on worker-time ledger
(:mod:`repro.sim.trace`), from which ``worker_stats`` is derived.  The
tracer always records the result prefixes (losses and the crash
lifecycle), so ``trace_channels`` filters diagnostics only: a full
trace, ``LIGHT_TRACE``, ``("loss",)`` and ``()`` give the same results.
"""

import numpy as np
import pytest

from repro.harness.golden import (
    MAX_ITER,
    N_WORKERS,
    conformance_spec,
    golden_fingerprint,
)
from repro.harness.spec import run_spec
from repro.protocols import registered_protocols
from repro.protocols.base import LIGHT_TRACE
from repro.sim.trace import RESULT_PREFIXES

ALLOWLISTS = {
    "full": None,
    "light": LIGHT_TRACE,
    "loss": ("loss",),
    "none": (),
}


def runs_under_every_allowlist(spec):
    return {
        name: run_spec(spec.with_(trace_channels=channels))
        for name, channels in ALLOWLISTS.items()
    }


@pytest.mark.parametrize("protocol", sorted(registered_protocols()))
def test_bound_channels_record_what_per_call_keys_did(protocol):
    spec = conformance_spec(protocol, "none")
    full = run_spec(spec.with_(trace_channels=None))
    light = run_spec(spec.with_(trace_channels=LIGHT_TRACE))
    for wid in range(N_WORKERS):
        samples = full.tracer.raw(f"loss/{wid}")
        assert len(samples) == MAX_ITER
        assert light.tracer.raw(f"loss/{wid}") == samples
    assert len(full.ledger) == N_WORKERS * MAX_ITER
    assert light.ledger.table().tobytes() == full.ledger.table().tobytes()
    prefixes = {key.partition("/")[0] for key in light.tracer.keys()}
    assert prefixes <= RESULT_PREFIXES
    assert "loss" in prefixes


def test_fault_events_and_losses_ignore_the_allowlist():
    runs = runs_under_every_allowlist(conformance_spec("hop", "crash-restart"))
    full = runs["full"]
    assert len(full.fault_events) == 3
    times, losses = full.loss_series()
    assert len(losses) == N_WORKERS * MAX_ITER
    for run in runs.values():
        assert golden_fingerprint(run) == golden_fingerprint(full)
        got_times, got_losses = run.loss_series()
        np.testing.assert_array_equal(got_times, times)
        np.testing.assert_array_equal(got_losses, losses)


@pytest.mark.parametrize("family", ["none", "random"])
@pytest.mark.parametrize("protocol", sorted(registered_protocols()))
def test_worker_stats_ignore_the_allowlist(protocol, family):
    runs = runs_under_every_allowlist(conformance_spec(protocol, family))
    full = runs["full"]
    for run in runs.values():
        assert run.worker_stats == full.worker_stats
        assert run.mean_iteration_duration() == full.mean_iteration_duration()
    for stats in full.worker_stats:
        assert stats["iteration_duration_mean"] > 0.0
        # Hop's family measures its loss; no protocol reports a
        # placeholder for one.
        assert ("loss_mean" in stats) == (protocol in ("hop", "notify_ack"))
    assert full.mean_iteration_duration() > 0.0
