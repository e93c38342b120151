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
# the elastic protocols); the conformance matrix then asserts all 153
# golden cells — static, churn (every protocol x every churn family,
# no stalled survivor), compressed and CNN — bit-for-bit, so a
# membership change can never silently shift a static-run result.
python -m repro figures --preset smoke --only fig25
python -m pytest -x -q tests/scenarios/test_conformance_matrix.py

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

echo "== event budget: hop/64 and ps-async/128 heap entries per worker-iteration =="
# The noise-free half of the guard above: an exact count read off the
# engine's insertion counter, so it needs no headroom.  A hop
# worker-iteration is compute + one fan-out Delivery + dequeue + a
# three-step token gate = 6 heap entries (9.93 with one entry per
# delivery, per token acquisition and per AllOf); the final iteration
# takes no tokens, so 40 iterations read 5.97.  ps-async/128 x 10 is
# pinned exactly at 7,938 entries (6.20 per worker-iteration): each
# PS NIC grant stands where the Resource Request stood.  Both runs also
# check the ledger exactly: one row per worker-iteration, each worker's
# iteration_duration_mean the Welford mean of its rows' end - start,
# each row carrying a finite loss, and a loss series of one sample per
# worker-iteration.
python - <<'PY'
import numpy as np

from repro.graphs import ring_based
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import by_name
from repro.sim.trace import LOSS, StatAccumulator


def check_ledger(spec, run, n, iterations):
    ledger = run.ledger
    assert len(ledger) == n * iterations, (spec.name, len(ledger))
    durations = (
        ledger.column("end", n) - ledger.column("start", n)
    ).tolist()
    for stats, row in zip(run.worker_stats, durations):
        welford = StatAccumulator()
        for duration in row:
            welford.add(duration)
        assert stats["iteration_duration_mean"] == welford.mean, (
            spec.name, stats["wid"]
        )
    assert np.isfinite(ledger.table()[:, LOSS]).all(), spec.name
    times, losses = run.loss_series()
    assert len(times) == len(losses) == n * iterations, spec.name
    print(f"ledger OK: {spec.name}, {len(ledger)} rows")

n, iterations = 64, 40
spec = ExperimentSpec(
    name=f"event-budget/hop/{n}",
    workload=by_name("svm", "smoke"),
    topology=ring_based(n),
    protocol="hop",
    max_iter=iterations,
    seed=0,
)
run = run_spec(spec)
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
check_ledger(spec, run, n, iterations)

n, iterations = 128, 10
spec = ExperimentSpec(
    name=f"event-budget/ps-async/{n}",
    workload=by_name("svm", "smoke"),
    topology=ring_based(n),
    protocol="ps-async",
    max_iter=iterations,
    seed=0,
)
run = run_spec(spec)
assert run.events_scheduled == 7938, (
    f"ps-async/{n} scheduled {run.events_scheduled} heap entries "
    "(pinned at 7938): did the PS NIC or the server move an event?"
)
print(
    f"event budget OK: ps-async/{n} x {iterations} iterations, "
    f"{run.events_scheduled} events, "
    f"{run.events_scheduled / (n * iterations):.2f} per worker-iteration"
)
check_ledger(spec, run, n, iterations)
PY

echo "== call budget: hop/64 and ps-async/128 function calls per worker-iteration =="
# The interpreter's half of the event budget: cProfile's exact call
# count for the same two runs (`ProfileReport.calls`, after one warm-up
# run, less the profiler's own GC callback).  It is exact for one tree
# and one interpreter, so the ceilings are the counts the runs make now,
# in this order, in a fresh process: 279,333 calls (109.1 per
# worker-iteration) and 132,558 (103.6).  Before the per-message
# bookkeeping and the per-row replay draws went, they were about 370,000
# and 192,000; before the one dependency record and the PS worker's
# three-frame process, 325,087 and 156,770; before the ledger took the
# losses over from the string-keyed tracer, 319,241 and 148,088; before
# the gap was read off the ledger and the hop and PS loops lost their
# dead calls, 316,087 and 146,272; before the learning rate became one
# number and no step carried an iteration, 280,448 and 132,643; before
# the sigmoid left scipy for numpy's complex exp (a few calls a kernel
# chunk, paid for by signing a run's labels once), 279,607 and
# 132,585.  A first profile in a process pays a few calls of abc cache
# warm-up, which the order here fixes.  The counts are a fresh export's that
# writes its bytecode as it imports; with the bytecode already there,
# or with PYTHONDONTWRITEBYTECODE set, the runs read ~2,500 fewer.
python - <<'PY'
from repro.graphs import ring_based
from repro.harness.profiling import profile_spec
from repro.harness.spec import ExperimentSpec
from repro.harness.workloads import by_name

for protocol, n, iterations, ceiling in (
    ("hop", 64, 40, 279_333),
    ("ps-async", 128, 10, 132_558),
):
    spec = ExperimentSpec(
        name=f"call-budget/{protocol}/{n}",
        workload=by_name("svm", "smoke"),
        topology=ring_based(n),
        protocol=protocol,
        max_iter=iterations,
        seed=0,
    )
    report = profile_spec(spec, limit=1)
    assert report.calls <= ceiling, (
        f"{protocol}/{n} x {iterations} made {report.calls:,} calls "
        f"(ceiling {ceiling:,}): what came back on the per-message or "
        "per-row path?"
    )
    print(
        f"call budget OK: {protocol}/{n} x {iterations} iterations, "
        f"{report.calls:,} calls, {report.calls_per_iteration:.2f} per "
        f"worker-iteration (ceiling {ceiling:,})"
    )
PY

echo "== compute seam: hop/64, ps-async/128 and ps-bsp/128 replay, adpsgd/16 pools =="
# The fourth noise-free guard (beside the event budget above, the cnn
# pin and the scale smoke below): exact counts off the run's compute
# pool (docs/ARCHITECTURE.md, "The compute seam" and "Replay").  Static
# hop records its dependencies and replays the math after the
# simulation: 10 iterations are 10 replay levels of all 64 workers, and
# not one ticket goes through the pool.  Under staleness 5 and random
# 6x a reduce may read a neighbour's newer update, and the same 640
# rows take 15 levels.  Static ps-async records too: its 1,280
# gradients replay in 15 levels, one per run of server versions the
# pulls read; ps-bsp with two backup workers under random 6x is one
# level per iteration, stale gradients included.  A ticket there means
# the run lost its replay; a fallback means the SVM lost its kernel.
# adpsgd still submits tickets, and holds its own exact counts: 10
# iterations of 16 workers in 12 flushes, all stacked.  The last count
# is model_factory calls: a replaying run builds one model and a
# determinism witness, an eager one a replica per worker.
python - <<'PY'
from repro.core.config import staleness_config
from repro.graphs import bipartite_ring, ring_based
from repro.harness.spec import RANDOM_6X, ExperimentSpec
from repro.harness.workloads import by_name
from repro.protocols.registry import build_cluster

iterations = 10
expected = [
    # protocol, n, spec fields,
    # (tickets, flushes, stacked, fallback, levels, rows, factory calls)
    ("hop", 64, {}, (0, 0, 0, 0, 10, 640, 2)),
    (
        "hop",
        64,
        dict(config=staleness_config(5), slowdown=RANDOM_6X),
        (0, 0, 0, 0, 15, 640, 2),
    ),
    ("ps-async", 128, {}, (0, 0, 0, 0, 15, 1280, 2)),
    (
        "ps-bsp",
        128,
        dict(ps_backup=2, slowdown=RANDOM_6X),
        (0, 0, 0, 0, 10, 1280, 2),
    ),
    ("adpsgd", 16, {}, (160, 12, 160, 0, 0, 0, 16)),
]
for protocol, n, fields, counts in expected:
    cluster = build_cluster(
        ExperimentSpec(
            name=f"compute-seam/{protocol}/{n}",
            workload=by_name("svm", "smoke"),
            # AD-PSGD gossips across the two halves of a bipartite graph.
            topology=(bipartite_ring if protocol == "adpsgd" else ring_based)(n),
            protocol=protocol,
            max_iter=iterations,
            seed=0,
            **fields,
        )
    )
    built = []
    factory = cluster.model_factory
    cluster.model_factory = lambda rng: built.append(rng) or factory(rng)
    cluster.run()
    pool = cluster.runtime.compute
    got = (
        pool.tickets,
        pool.flushes,
        pool.stacked,
        pool.fallback,
        pool.levels,
        pool.rows,
        len(built),
    )
    assert got == counts, (protocol, n, fields, pool, len(built))
    print(
        f"compute seam OK: {protocol}/{n} {sorted(fields)} x {iterations} "
        f"iterations, {pool.tickets} tickets in {pool.flushes} flushes, "
        f"{pool.rows} rows in {pool.levels} replay levels, "
        f"{pool.fallback} fallback, {len(built)} models built"
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
    | grep -E " (cell_ms|setup_s|peak_rss_mb) |ops_attempted"
# And an exact counter beside the times: the bytes tracemalloc sees one
# warm paper-preset step allocate at its peak (1,474,056 B since the
# pools gather their planes and hand dx back in the input's layout;
# 1,539,528 B before).  Repeats differ by under 200 B; the ceiling
# trips on a kernel that adds a copy, not on noise.
python - <<'PY'
import numpy as np

from repro.harness.profiling import model_step_budget
from repro.harness.workloads import cnn_workload

workload = cnn_workload("paper")
data, batch = workload.dataset, workload.batch_size
model = workload.model_factory(np.random.default_rng(0))
budget = model_step_budget(
    model, data.x_train[:batch], data.y_train[:batch], repeats=5, warmup=5
)
ceiling = 1_474_056 + 1024
print(f"traced peak of one step: {budget.peak_bytes:,} B "
      f"(ceiling {ceiling:,} B)")
assert budget.peak_bytes <= ceiling, (
    f"one paper-preset CNN step traced {budget.peak_bytes:,} B at its "
    f"peak, over the {ceiling:,} B ceiling: a kernel allocates more"
)
PY

echo "== start-up smoke: linear-time start-up, no scipy on the run path =="
# Same philosophy as the sim-core floor.  ring_based(2048) builds and
# validates in 0.04-0.2 s on the reference container (2.0-2.6 s while
# the weight-support and connectivity checks were Python loops over
# all n^2 pairs); the 1.0 s ceiling trips on a Python-level O(n^2) in
# start-up, not on machine noise.  And neither importing what a run
# imports nor running an SVM cell may load scipy, a test-only
# dependency: the SVM's sigmoid is numpy's complex exp
# (docs/ARCHITECTURE.md, "The SVM's sigmoid").  That an SVM step, a
# replayed hop run, a ps-async run, an eager adpsgd run, a CNN step and
# a 512-row evaluate load none of it is tests/ml/test_footprint.py's
# check, run with the suite above.
python - <<'PY'
import sys
import time

import repro.harness.golden  # noqa: F401
import repro.harness.spec  # noqa: F401
import repro.service  # noqa: F401
from repro.graphs import ring_based
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import by_name


def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


loaded = scipy_loaded()
assert not loaded, f"importing the run path loaded scipy: {loaded[:5]}"
run = run_spec(
    ExperimentSpec(
        name="start-up/svm",
        workload=by_name("svm", "smoke"),
        topology=ring_based(8),
        max_iter=5,
        seed=0,
    )
)
_, losses = run.loss_series()
assert len(losses) == 8 * 5 and (losses == losses).all(), "a loss is NaN"
loaded = scipy_loaded()
assert not loaded, f"an SVM cell loaded scipy: {loaded[:5]}"

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
    f"(ceiling {ceiling:.1f} s), scipy loaded neither by the run path nor "
    "by an SVM cell"
)
PY

echo "== scale smoke: hop/4096 resident memory, no n x n array =="
# Cluster state is O(n + m): per-edge topology weights, one transition
# stamp per ledger row (the gap is derived from them after the run), and
# what each worker holds.  hop / svm / 4096 workers / 2 iterations peaks at ~79 MB in a
# fresh interpreter on a 2-core x86-64 container (~82 MB while each
# worker's record plane kept its own columns; ~106 MB while every
# worker held its own container per queue slot, waiter list and data
# stream; ~122 MB while it built a model replica per worker); one dense
# float64 4096 x 4096 array is 128 MB on its own (the run took 390 MB
# while it held two).  The 200 MB ceiling is the tripwire for a
# reintroduced n x n allocation.  The smoke also prints what a worker
# costs: resident bytes the run added, by worker, and the GC-tracked
# objects it built before the simulation started (~21 a worker; ~23
# while each record plane held two arrays, 46 before workers shed their
# empty containers).
python - <<'PY'
import gc
import resource

from repro.graphs import ring_based
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import by_name
from repro.sim.engine import Environment

n, iterations = 4096, 2
spec = ExperimentSpec(
    name=f"scale-smoke/hop/{n}",
    workload=by_name("svm", "smoke"),
    topology=ring_based(n),
    protocol="hop",
    max_iter=iterations,
    seed=0,
)
tracked = []
simulate = Environment.run


def count_then_run(env, *args, **kwargs):
    tracked.append(len(gc.get_objects()))
    return simulate(env, *args, **kwargs)


Environment.run = count_then_run
# Linux reports ru_maxrss in KiB.
before_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
tracked.append(len(gc.get_objects()))
run = run_spec(spec)
assert run.iterations_completed == [iterations] * n
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
peak_mb = peak_kib / 1024.0
ceiling_mb = 200.0
assert peak_mb < ceiling_mb, (
    f"hop/{n} x {iterations} iterations peaked at {peak_mb:.0f} MB "
    f"(ceiling {ceiling_mb:.0f} MB): did an n x n array come back?"
)
print(
    f"scale smoke OK: hop/{n} x {iterations} iterations, "
    f"max_gap={run.gap.max_observed():g}, ru_maxrss {peak_mb:.1f} MB "
    f"(ceiling {ceiling_mb:.0f} MB); a worker: "
    f"{(peak_kib - before_kib) * 1024 / n:,.0f} resident bytes, "
    f"{(tracked[1] - tracked[0]) / n:.1f} tracked objects before the run"
)
PY

echo "== sanitizer smoke: REPRO_SANITIZE=1 conformance cell =="
# The runtime half of the aliasing rules: parameter buffers are
# read-only outside set_params' sanctioned window, and one conformance
# cell must still match its golden fingerprint bit-for-bit.
REPRO_SANITIZE=1 python -m pytest -x -q tests/ml/test_sanitizer.py

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
