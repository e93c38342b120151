"""Exact heap-entry budget of a worker-iteration (noise-free perf guard).

``TrainingRun.events_scheduled`` is read off the engine's insertion
counter, so these are counts, not timings: they repeat exactly on any
machine and move only when a protocol's event structure does.
"""

import pytest

from repro.graphs import ring_based
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import by_name
from repro.protocols.base import LIGHT_TRACE

WORKERS, ITERATIONS = 64, 10

#: Per worker: process start + finish, then per iteration
#: hop        — compute, one fan-out Delivery, dequeue, and between
#:              iterations a token gate (round trip, last grant, fire);
#: notify_ack — compute, ACK gate (last grant, fire), update Delivery,
#:              dequeue, ACK Delivery.
BUDGET = {
    "hop": 2 + 3 * ITERATIONS + 3 * (ITERATIONS - 1),
    "notify_ack": 2 + 6 * ITERATIONS,
}


@pytest.mark.parametrize("protocol", sorted(BUDGET))
def test_events_scheduled_per_worker_iteration(protocol):
    run = run_spec(
        ExperimentSpec(
            name=f"event-budget/{protocol}",
            workload=by_name("svm", "smoke"),
            topology=ring_based(WORKERS),
            protocol=protocol,
            max_iter=ITERATIONS,
            seed=0,
            trace_channels=LIGHT_TRACE,
        )
    )
    assert run.iterations_completed == [ITERATIONS] * WORKERS
    assert run.events_scheduled == WORKERS * BUDGET[protocol]
    per_iteration = run.events_scheduled / (WORKERS * ITERATIONS)
    if protocol == "hop":
        # 9.70 with one heap entry per delivery, per token and per
        # AllOf; the scripts/ci.sh "event budget" step holds this line.
        assert per_iteration <= 6.0
