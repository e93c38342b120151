"""Per-worker tracer channels are bound once per run, not per iteration.

Every protocol logs ``loss/<wid>`` and ``duration/<wid>`` through a
pre-bound channel (``HopWorker``'s own, or ``ProtocolRuntime.log_loss``
/ ``log_duration``).  Binding must not change what is recorded: a full
trace still holds one sample per worker-iteration, a ``LIGHT_TRACE``
run holds the same samples at the same timestamps, and nothing outside
the allowlist.
"""

import pytest

from repro.harness.golden import MAX_ITER, N_WORKERS, conformance_spec
from repro.harness.spec import run_spec
from repro.protocols import registered_protocols
from repro.protocols.base import LIGHT_TRACE


@pytest.mark.parametrize("protocol", sorted(registered_protocols()))
def test_bound_channels_record_what_per_call_keys_did(protocol):
    spec = conformance_spec(protocol, "none")
    full = run_spec(spec.with_(trace_channels=None))
    light = run_spec(spec.with_(trace_channels=LIGHT_TRACE))
    for wid in range(N_WORKERS):
        for series in (f"loss/{wid}", f"duration/{wid}"):
            samples = full.tracer.raw(series)
            assert len(samples) == MAX_ITER, series
            assert light.tracer.raw(series) == samples, series
    prefixes = {key.partition("/")[0] for key in light.tracer.keys()}
    assert prefixes <= set(LIGHT_TRACE)
    assert prefixes >= {"loss", "duration"}
