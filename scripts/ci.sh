#!/usr/bin/env bash
# CI gate: the invariant lint, tier-1 tests (with coverage when
# available), benchmark smoke figures, the REPRO_SANITIZE smoke, and
# the docs check.
# `ci.sh --protocols` additionally smoke-runs the protocol-comparison
# figure (Hop vs partial-allreduce vs momentum-tracking vs baselines).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Recorded line-coverage floor for the tier-1 suite over src/repro
# (measured 94.8% at adoption; the stdlib gate is slightly conservative
# vs coverage.py).  Raise it as subsystems gain tests; never lower it
# to paper over debt.  CI=fast skips the coverage run (plain pytest).
COVERAGE_FLOOR=90

echo "== lint: simulator-invariant static analysis =="
# Determinism, zero-copy aliasing, DES perf and registry contracts
# (repro.analysis).  The checked-in baseline is empty, so any finding
# fails the gate outright.
python -m repro lint

echo "== tier-1: unit/property tests =="
if [[ "${CI:-}" == "fast" ]]; then
    echo "   (CI=fast: coverage gate skipped, floor on record:" \
         "${COVERAGE_FLOOR}%)"
    python -m pytest -x -q
elif python -c "import pytest_cov" 2>/dev/null; then
    echo "   (pytest-cov; floor ${COVERAGE_FLOOR}%)"
    python -m pytest -x -q --cov=repro --cov-report=term-missing:skip-covered \
        --cov-fail-under="${COVERAGE_FLOOR}"
else
    echo "   (pytest-cov not installed; using the stdlib settrace gate," \
         "floor ${COVERAGE_FLOOR}%)"
    python scripts/coverage_gate.py --floor "${COVERAGE_FLOOR}"
fi

echo "== bench smoke: fig21 (instant) + fig16 at smoke preset =="
python -m pytest -x -q benchmarks/test_studies.py -k fig21
python -m repro figures --preset smoke --only fig16

echo "== scaling smoke: fig24 smallest cells (8/16 workers) + 256-worker scale tier =="
python -m repro figures --preset smoke --only fig24

echo "== membership smoke: fig25 churn study + golden-stats drift check =="
# fig25 exercises the whole membership plane (leave/join/rewire across
# the elastic protocols); the conformance matrix then asserts every
# golden cell — the 90 pre-membership recordings AND the churn cells —
# bit-for-bit, so a membership change can never silently shift a
# static-run result.
python -m repro figures --preset smoke --only fig25
python -m pytest -x -q tests/scenarios/test_conformance_matrix.py

echo "== full-grid churn smoke: every protocol survives churn =="
# One pinned churn cell per protocol (families rotate so all three —
# scripted, Poisson, trace-replay — stay exercised): no deadlock, no
# stalled survivor.  The registry's elastic flags are the loop bound,
# so a protocol silently dropping its elastic=True breaks this gate.
python - <<'PY'
from repro.harness.golden import (
    ELASTIC_PROTOCOLS,
    MAX_ITER,
    churn_conformance_spec,
)
from repro.harness.spec import run_spec
from repro.protocols import registered_protocols

assert tuple(registered_protocols()) == tuple(sorted(ELASTIC_PROTOCOLS)), (
    "the full grid must stay elastic"
)
families = ("churn", "churn-poisson", "churn-trace")
for index, protocol in enumerate(ELASTIC_PROTOCOLS):
    family = families[index % len(families)]
    run = run_spec(churn_conformance_spec(protocol, family))
    leavers = {
        event["worker"]
        for event in run.membership_events
        if event["kind"] == "leave"
    }
    stalled = [
        worker
        for worker, completed in enumerate(run.iterations_completed)
        if completed != MAX_ITER and worker not in leavers
    ]
    assert not stalled, f"{protocol}/{family}: stalled {stalled}"
    print(
        f"{protocol:18s} x {family:13s} OK "
        f"(membership_events={len(run.membership_events)}, "
        f"dropped={run.messages_dropped})"
    )
print(f"full grid elastic: all {len(ELASTIC_PROTOCOLS)} protocols")
PY

echo "== compression smoke: fig26 ablation + compressed golden cells =="
# fig26 exercises the compression plane end-to-end (top-k/int8 error
# feedback, payload-accurate pricing on constrained links); the
# conformance run above already replayed the compressed golden cells
# bit-for-bit, so a compressor change can never silently shift a
# dense-run result either.
python -m repro figures --preset smoke --only fig26

echo "== sim-core microbenchmark: generous events/sec floor =="
# ~1.0M events/sec on the reference container after the PR 4 engine
# fast path (625k before it).  The 200k floor is ~5x headroom: it only
# trips on a real regression (an accidental O(n^2), a de-inlined hot
# loop), never on machine noise.
python - <<'PY'
from repro.harness.profiling import sim_core_events_per_sec

rate = sim_core_events_per_sec()
floor = 200_000
assert rate > floor, (
    f"sim-core regressed: {rate:,.0f} events/sec (floor {floor:,})"
)
print(f"sim-core OK: {rate:,.0f} events/sec (floor {floor:,})")
PY

echo "== event budget: hop/64 heap entries per worker-iteration =="
# The noise-free half of the guard above: an exact count read off the
# engine's insertion counter, so it needs no headroom.  A hop
# worker-iteration is compute + one fan-out Delivery + dequeue + a
# three-step token gate = 6 heap entries (9.93 with one entry per
# delivery, per token acquisition and per AllOf); the final iteration
# takes no tokens, so 40 iterations read 5.97.
python - <<'PY'
from repro.graphs import ring_based
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import by_name
from repro.protocols.base import LIGHT_TRACE

n, iterations = 64, 40
run = run_spec(
    ExperimentSpec(
        name=f"event-budget/hop/{n}",
        workload=by_name("svm", "smoke"),
        topology=ring_based(n),
        protocol="hop",
        max_iter=iterations,
        seed=0,
        trace_channels=LIGHT_TRACE,
    )
)
per_iteration = run.events_scheduled / sum(run.iterations_completed)
budget = 6.0
assert per_iteration <= budget, (
    f"hop/{n} schedules {per_iteration:.2f} heap entries per "
    f"worker-iteration (budget {budget:.1f}): did a per-message or "
    "per-token event come back?"
)
print(
    f"event budget OK: hop/{n} x {iterations} iterations, "
    f"{run.events_scheduled} events, {per_iteration:.2f} per "
    f"worker-iteration (budget {budget:.1f})"
)
PY

echo "== compute seam: hop/64 evaluates the whole cluster once per iteration =="
# The fourth noise-free guard (beside the event budget above, the cnn
# pin and the scale smoke below): exact counts off the run's compute
# pool (docs/ARCHITECTURE.md, "The compute seam").  A static ring's 64
# workers are all mid-compute when the first of them needs its gradient,
# so 10 iterations are 10 evaluations of 64 tickets each, all through
# the stacked SVM kernel.  More flushes means a call site resolves
# before its timeout (or something writes a model mid-compute); a
# fallback ticket means the SVM lost its kernel.
python - <<'PY'
from repro.graphs import ring_based
from repro.harness.spec import ExperimentSpec
from repro.harness.workloads import by_name
from repro.protocols.base import LIGHT_TRACE
from repro.protocols.registry import build_cluster

n, iterations = 64, 10
cluster = build_cluster(
    ExperimentSpec(
        name=f"compute-seam/hop/{n}",
        workload=by_name("svm", "smoke"),
        topology=ring_based(n),
        protocol="hop",
        max_iter=iterations,
        seed=0,
        trace_channels=LIGHT_TRACE,
    )
)
cluster.run()
pool = cluster.runtime.compute
assert (pool.tickets, pool.flushes, pool.fallback) == (640, 10, 0), pool
print(
    f"compute seam OK: hop/{n} x {iterations} iterations, "
    f"{pool.tickets} tickets in {pool.flushes} flushes "
    f"(mean batch {pool.mean_batch:.0f}), {pool.fallback} fallback"
)
PY

echo "== cnn pin: six paper-preset CNN fingerprints, bit for bit =="
# The second noise-free guard.  The golden grid's nine CNN cells run the
# smoke preset; these are the paper preset (batch 64, 8/16 filters), the
# shapes the ml kernels are tuned on, under random 6x and straggler 4x
# slowdowns.  run.py compares every cell with bench/expected.json and
# exits 1 on a difference (it reads bench/ and edits nothing there); a
# kernel change may move data, never a bit (docs/ARCHITECTURE.md, "The
# CNN step").  The timings it prints from a 3-second run are not a
# measurement.
python3 bench/run.py --workload cnn-hetero --seed 0 --seconds 3 \
    | grep -E " (cell_ms|setup_s) |ops_attempted"

echo "== start-up smoke: linear-time start-up, scipy on demand =="
# Same philosophy as the sim-core floor.  ring_based(2048) builds and
# validates in 0.04-0.2 s on the reference container (2.0-2.6 s while
# the weight-support and connectivity checks were Python loops over
# all n^2 pairs); the 1.0 s ceiling trips on a Python-level O(n^2) in
# start-up, not on machine noise.  And importing the harness must not
# load scipy: its two users import it at first use.
python - <<'PY'
import sys
import time

import repro.harness  # noqa: F401
from repro.graphs import ring_based

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"import repro.harness loaded scipy: {loaded[:5]}"

start = time.perf_counter()
topology = ring_based(2048)
topology.validate()
elapsed = time.perf_counter() - start
ceiling = 1.0
assert elapsed < ceiling, (
    f"start-up regressed: ring_based(2048) + validate() took "
    f"{elapsed:.2f} s (ceiling {ceiling:.1f} s)"
)
print(
    f"start-up smoke OK: ring_based(2048) + validate() in {elapsed:.2f} s "
    f"(ceiling {ceiling:.1f} s), scipy not imported by repro.harness"
)
PY

echo "== scale smoke: hop/4096 resident memory, no n x n array =="
# Cluster state is O(n + m): per-edge topology weights, a running
# minimum and a transition log in the gap tracker.  hop / svm / 4096
# workers / 2 iterations peaks at ~135 MB in a fresh interpreter on the
# reference container; one dense float64 4096 x 4096 array is 128 MB on
# its own (the run took 390 MB while it held two).  The 200 MB ceiling
# is the tripwire for a reintroduced n x n allocation.
python - <<'PY'
import resource

from repro.graphs import ring_based
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import by_name
from repro.protocols.base import LIGHT_TRACE

n, iterations = 4096, 2
run = run_spec(
    ExperimentSpec(
        name=f"scale-smoke/hop/{n}",
        workload=by_name("svm", "smoke"),
        topology=ring_based(n),
        protocol="hop",
        max_iter=iterations,
        seed=0,
        trace_channels=LIGHT_TRACE,
    )
)
assert run.iterations_completed == [iterations] * n
# Linux reports ru_maxrss in KiB.
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
ceiling_mb = 200.0
assert peak_mb < ceiling_mb, (
    f"hop/{n} x {iterations} iterations peaked at {peak_mb:.0f} MB "
    f"(ceiling {ceiling_mb:.0f} MB): did an n x n array come back?"
)
print(
    f"scale smoke OK: hop/{n} x {iterations} iterations, "
    f"max_gap={run.gap.max_observed():g}, ru_maxrss {peak_mb:.0f} MB "
    f"(ceiling {ceiling_mb:.0f} MB)"
)
PY

echo "== sanitizer smoke: REPRO_SANITIZE=1 conformance cell =="
# The runtime half of the aliasing rules: parameter buffers are
# read-only outside set_params' sanctioned window, and one conformance
# cell must still match its golden fingerprint bit-for-bit.
REPRO_SANITIZE=1 python -m pytest -x -q tests/analysis/test_sanitizer.py

echo "== service smoke: serve/submit, golden-verified cache, drain =="
# The fault-tolerant experiment service end-to-end: a real `repro
# serve` subprocess computes the golden-pinned hop/none cell (asserted
# bit-for-bit against golden_stats.json), serves the second identical
# submit as a fingerprint-verified cache hit, and drains on SIGTERM
# with exit 0.  The chaos suite (tests/service/test_chaos.py, part of
# tier-1 above) covers kill -9 resume, cache corruption and worker
# crashes.
python scripts/service_smoke.py

echo "== repo benchmark: its own tests + a quick run of all four workloads =="
# bench/ (see BENCHMARK.json, bench/README.md) checks every op's golden
# fingerprint and the service's /stats counters (nothing recomputed on
# the warm path, nothing hit on the cold one, no retry/failure/shed),
# so those gate every PR and not only the ones that claim a gain.
# run.py exits 1 on any failed op (pipefail carries it through grep,
# which only trims the ~250 metric lines to the ones worth reading).
python3 -m pytest bench/tests -q
python3 bench/run.py --quick | grep -E " (cell_ms|setup_s) |ops_attempted"

echo "== docs: README / ARCHITECTURE code blocks =="
python scripts/check_docs.py

if [[ "${1:-}" == "--protocols" ]]; then
    echo "== protocols smoke: fig22 (hop vs partial-allreduce vs" \
         "momentum-tracking vs baselines) =="
    python -m repro figures --preset smoke --only fig22
    python -m repro ablations --preset smoke --only partial_groups
fi

if [[ "${1:-}" == "--scenarios" ]]; then
    echo "== scenarios smoke: fig23 (protocol x scenario-family grid) =="
    python -m repro figures --preset smoke --only fig23
fi

echo "CI OK"
