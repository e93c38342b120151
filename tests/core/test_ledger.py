"""The worker-time ledger's conservation law, on every golden cell.

Every protocol's iteration body records one ledger row per
worker-iteration (:mod:`repro.sim.trace`).  For every worker of every
golden cell:

* a row's entered phases tile ``[start, end]``: sorted, the first
  starts at ``start``, each starts exactly where the previous one ended
  (an equality on stored timestamps) and the last ends at ``end``, so
  boundaries never decrease;
* consecutive rows are contiguous (a row starts where the previous one
  ended) except across a crash or a leave, which the run's
  ``fault_events`` / ``membership_events`` name at that instant;
* the last row ends when the worker's process finished (or when it
  left for good);
* ``worker_stats`` are the Welford means of the rows.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.harness.golden import (
    CHURN_CELLS,
    CNN_FAMILY,
    churn_conformance_spec,
    cnn_conformance_spec,
    compression_conformance_spec,
    conformance_spec,
)
from repro.protocols.registry import build_cluster
from repro.sim import engine
from repro.sim.trace import COLUMNS, PHASES, StatAccumulator

GOLDEN = Path(__file__).parents[1] / "scenarios" / "golden_stats.json"
KEYS = sorted(json.loads(GOLDEN.read_text())["cells"])
COLUMN = {name: index for index, name in enumerate(COLUMNS)}


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
