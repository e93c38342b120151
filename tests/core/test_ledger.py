"""The ledger, a run's one time record, on every golden cell.

Every protocol's iteration body records one ledger row per
worker-iteration, its phase boundaries and its loss
(:mod:`repro.sim.trace`).  For every worker of every golden cell:

* a row's entered phases tile ``[start, end]``: sorted, the first
  starts at ``start``, each starts exactly where the previous one ended
  (an equality on stored timestamps) and the last ends at ``end``, so
  boundaries never decrease;
* consecutive rows are contiguous (a row starts where the previous one
  ended) except across a crash or a leave, which the run's
  ``fault_events`` / ``membership_events`` name at that instant;
* the last row ends when the worker's process finished (or when it
  left for good);
* ``worker_stats`` are the Welford means of the rows;
* every row carries one finite loss, ``loss_series()`` is the rows'
  stable time-sort at the protocol's loss column, and hop and
  NOTIFY-ACK's ``loss_mean`` is the Welford mean of a worker's losses.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import ring_based
from repro.harness.golden import (
    CHURN_CELLS,
    CNN_FAMILY,
    MAX_ITER,
    N_WORKERS,
    churn_conformance_spec,
    cnn_conformance_spec,
    compression_conformance_spec,
    conformance_spec,
    run_fingerprint,
)
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import svm_workload
from repro.protocols.base import LIGHT_TRACE
from repro.protocols.registry import build_cluster
from repro.sim import engine
from repro.sim.trace import COLUMNS, PHASES, Ledger, StatAccumulator

GOLDEN = Path(__file__).parents[1] / "scenarios" / "golden_stats.json"
KEYS = sorted(json.loads(GOLDEN.read_text())["cells"])
COLUMN = {name: index for index, name in enumerate(COLUMNS)}
#: The column each protocol times its losses at (``end`` otherwise).
LOSS_AT = {"hop": "recv_to", "notify_ack": "recv_to", "allreduce": "start"}
#: The protocols whose ``worker_stats`` carry ``loss_mean``.
LOSS_MEAN = ("hop", "notify_ack")


def golden_spec(key):
    protocol, family = key.split("/")
    if family in CHURN_CELLS:
        return churn_conformance_spec(protocol, family)
    if family.startswith("compressed-"):
        return compression_conformance_spec(
            protocol, family[len("compressed-") :]
        )
    if family == CNN_FAMILY:
        return cnn_conformance_spec(protocol)
    return conformance_spec(protocol, family)


def run_with_finish_times(spec, monkeypatch):
    """Run ``spec``; also returns when each worker's process finished
    (the one all-reduce driver stands for every worker)."""
    finished = {}
    start = engine.Environment.process

    def process(env, generator, name=None):
        spawned = start(env, generator, name=name)
        suffix = (name or "").rpartition("-")[2]
        key = int(suffix) if suffix.isdigit() else suffix
        spawned.callbacks.append(lambda _: finished.__setitem__(key, env.now))
        return spawned

    monkeypatch.setattr(engine.Environment, "process", process)
    run = build_cluster(spec).run()
    monkeypatch.undo()
    return run, finished


def check_row_tiles(row):
    entered = []
    for phase in PHASES:
        low, high = row[COLUMN[f"{phase}_from"]], row[COLUMN[f"{phase}_to"]]
        assert math.isnan(low) == math.isnan(high)
        if not math.isnan(low):
            assert low <= high
            entered.append((low, high))
    assert entered, "every iteration computes"
    entered.sort()
    assert entered[0][0] == row[COLUMN["start"]]
    for (_, end), (start, _) in zip(entered, entered[1:]):
        assert start == end
    assert entered[-1][1] == row[COLUMN["end"]]


@pytest.mark.parametrize("key", KEYS)
def test_ledger_conserves_every_workers_time(key, monkeypatch):
    run, finished = run_with_finish_times(golden_spec(key), monkeypatch)
    table = run.ledger.table()
    rows_of = run.ledger.grid(run.n_workers)
    left = {
        (event["worker"], event["time"])
        for event in run.membership_events
        if event["kind"] == "leave"
    }
    crashed = {
        (event["worker"], event["time"])
        for event in run.fault_events
        if event["kind"] == "crashed"
    }
    if not run.membership_events:
        assert len(table) == sum(run.iterations_completed)
    for wid in range(run.n_workers):
        rows = [row for row in rows_of[wid] if not math.isnan(row[0])]
        for row in rows:
            check_row_tiles(row)
        for before, after in zip(rows, rows[1:]):
            assert after[COLUMN["iteration"]] > before[COLUMN["iteration"]]
            end, start = before[COLUMN["end"]], after[COLUMN["start"]]
            if start != end:
                assert start > end
                assert (wid, end) in left | crashed, (wid, end, start)
        if rows:
            end = rows[-1][COLUMN["end"]]
            finish = finished.get(wid, finished.get("driver"))
            assert end == finish or (wid, end) in left, (wid, end, finish)


@pytest.mark.parametrize(
    "key", ["hop/random", "notify_ack/crash-restart", "ps-ssp/straggler",
            "allreduce/churn", "adpsgd/churn-poisson"]
)
def test_worker_stats_are_the_ledgers_welford_means(key):
    run = build_cluster(golden_spec(key)).run()
    durations = run.ledger.column("end", run.n_workers) - run.ledger.column(
        "start", run.n_workers
    )
    for stats, row in zip(run.worker_stats, durations):
        accumulator = StatAccumulator()
        for value in row[~np.isnan(row)].tolist():
            accumulator.add(value)
        assert stats["iteration_duration_mean"] == accumulator.mean


@pytest.mark.parametrize("key", KEYS)
def test_every_row_carries_the_loss_the_series_reads(key):
    run = build_cluster(golden_spec(key)).run()
    protocol = key.split("/")[0]
    table = run.ledger.table()
    losses = table[:, COLUMN["loss"]]
    assert np.isfinite(losses).all()
    if key.endswith(("/none", "/random")):
        # Every protocol records one loss per worker-iteration.
        counts = np.bincount(table[:, 0].astype(int), minlength=N_WORKERS)
        assert counts.tolist() == [MAX_ITER] * N_WORKERS
        for stats in run.worker_stats:
            assert stats["iteration_duration_mean"] > 0.0
        assert run.mean_iteration_duration() > 0.0
    # The series is the rows grouped by worker, stably sorted by time.
    loss_at = LOSS_AT.get(protocol, "end")
    assert run.ledger.loss_at == loss_at
    rows = sorted(table.tolist(), key=lambda row: row[COLUMN["worker"]])
    rows.sort(key=lambda row: row[COLUMN[loss_at]])
    times, series = run.loss_series()
    assert times.tolist() == [row[COLUMN[loss_at]] for row in rows]
    assert series.tolist() == [row[COLUMN["loss"]] for row in rows]
    by_worker = run.ledger.column("loss", run.n_workers)
    for stats, row in zip(run.worker_stats, by_worker):
        assert ("loss_mean" in stats) == (protocol in LOSS_MEAN)
        if "loss_mean" in stats:
            accumulator = StatAccumulator()
            for value in row[~np.isnan(row)].tolist():
                accumulator.add(value)
            assert stats["loss_mean"] == accumulator.mean


def test_crash_restart_keeps_its_fault_events_and_every_loss():
    run = build_cluster(conformance_spec("hop", "crash-restart")).run()
    assert [event["kind"] for event in run.fault_events] == [
        "crashed", "resynced", "restarted"
    ]
    _, losses = run.loss_series()
    assert len(losses) == N_WORKERS * MAX_ITER


def test_a_nan_loss_is_reported_not_dropped():
    ledger = Ledger()
    ledger.record(0, 0, 0.0, 1.0, 0.5)
    ledger.record(0, 1, 1.0, 3.0, math.nan)
    ledger.record(1, 0, 0.0, 2.0, math.inf)
    times, losses = ledger.loss_series()
    assert times.tolist() == [1.0, 2.0, 3.0]
    assert losses[0] == 0.5 and losses[1] == math.inf and math.isnan(losses[2])
    stats = ledger.worker_stats([2, 1], "gate_wait_mean", loss_mean=True)
    assert math.isnan(stats[0]["loss_mean"])
    assert stats[1]["loss_mean"] == math.inf


def test_a_replayed_loss_column_is_filled_by_worker_and_iteration():
    ledger = Ledger("start")
    for wid, k in ((1, 0), (0, 0), (0, 1), (1, 1)):
        ledger.record(wid, k, float(k), float(k) + 1.0, math.nan)
    ledger.fill_losses(np.array([[0.0, 0.1], [1.0, 1.1]]))
    assert ledger.table()[:, COLUMN["loss"]].tolist() == [1.0, 0.0, 0.1, 1.1]
    assert ledger.loss_series()[1].tolist() == [0.0, 1.0, 0.1, 1.1]


def test_fault_events_order_by_time_worker_then_cause():
    ledger = Ledger()
    ledger.fault("restarted", 1, 2.0, 3)
    ledger.fault("resynced", 1, 2.0, 3)
    ledger.fault("crashed", 1, 1.0, 3)
    ledger.fault("crashed", 0, 2.0, 4)
    assert [
        (event["time"], event["worker"], event["kind"])
        for event in ledger.fault_events()
    ] == [
        (1.0, 1, "crashed"),
        (2.0, 0, "crashed"),
        (2.0, 1, "resynced"),
        (2.0, 1, "restarted"),
    ]


def test_trace_channels_is_ignored():
    """``ExperimentSpec.trace_channels`` is constructor-only and read by
    nothing (the benchmark's recipes still pass it): a run keeps its
    losses and durations in its ledger either way."""
    spec = ExperimentSpec(
        name="light",
        workload=svm_workload("smoke"),
        topology=ring_based(4),
        max_iter=4,
        seed=0,
        trace_channels=LIGHT_TRACE,
    )
    assert spec == spec.with_(trace_channels=None)
    light, plain = run_spec(spec), run_spec(spec.with_(trace_channels=None))
    assert run_fingerprint(light) == run_fingerprint(plain)
    _, losses = light.loss_series()
    assert len(losses) == 16 and np.isfinite(losses).all()
    assert light.mean_iteration_duration() > 0.0
