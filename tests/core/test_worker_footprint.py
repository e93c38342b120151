"""What one worker of a replaying hop cluster costs.

A fig24-scale cluster is thousands of workers, so what each one builds
sets the run's resident set and how much the cyclic collector has to
walk.  On replaying hop/256 x 4 (bench SVM, ``ring_based``):

* the GC-tracked objects ``run()`` creates before ``env.run()`` —
  counted after a full collection at both ends, so the count is exact
  and repeats — are pinned per worker, and stay at most 30 a worker;
* the bytes tracemalloc sees at the run's peak, which falls in the
  replay, stay at most 10 KB a worker.
"""

import gc
import tracemalloc

import pytest

from repro.graphs import ring_based
from repro.harness.spec import ExperimentSpec
from repro.harness.workloads import svm_workload
from repro.protocols.registry import build_cluster
from repro.sim.engine import Environment

N_WORKERS = 256
#: GC-tracked objects a replaying hop worker adds before ``env.run()``:
#: its generator, ``Process``, start event, their two callback lists and
#: bound method, and its heap entry; the generator's cached ``send``
#: and ``throw``; the worker and its ``RecordPlane`` (the record's
#: columns are the run's, shared by every worker), its ``Batcher``,
#: rotating update queue and slot list, three token queues, and the
#: tuple of bound enqueues and its three methods.
TRACKED_PER_WORKER = 21


def replaying_hop(n_workers, workload):
    return ExperimentSpec(
        name=f"footprint/hop/{n_workers}",
        workload=workload,
        topology=ring_based(n_workers),
        max_iter=4,
        seed=0,
    )


@pytest.fixture(scope="module")
def workload():
    workload = svm_workload("bench")
    # First-run imports and caches are not a worker's.
    build_cluster(replaying_hop(8, workload)).run()
    return workload


def tracked_before_run(workload, n_workers, monkeypatch):
    """GC-tracked objects ``run()`` creates before ``env.run()``."""
    cluster = build_cluster(replaying_hop(n_workers, workload))
    counted = []
    run = Environment.run

    def count_then_run(env, *args, **kwargs):
        gc.collect()
        counted.append(len(gc.get_objects()))
        return run(env, *args, **kwargs)

    monkeypatch.setattr(Environment, "run", count_then_run)
    gc.collect()
    before = len(gc.get_objects())
    cluster.run()
    monkeypatch.undo()
    assert cluster.record is not None, "the run must replay"
    return counted[0] - before


def test_tracked_objects_per_worker(workload, monkeypatch):
    # The run's own objects are a few dozen, and the first counted run
    # builds a handful fewer of them: compare two sizes after one.
    tracked_before_run(workload, N_WORKERS // 2, monkeypatch)
    half = tracked_before_run(workload, N_WORKERS // 2, monkeypatch)
    full = tracked_before_run(workload, N_WORKERS, monkeypatch)
    assert full - half == TRACKED_PER_WORKER * (N_WORKERS // 2)
    assert full / N_WORKERS <= 30


def test_traced_bytes_per_worker_at_the_replay_peak(workload):
    cluster = build_cluster(replaying_hop(N_WORKERS, workload))
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cluster.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cluster.record is not None, "the run must replay"
    assert (peak - start) / N_WORKERS <= 10_000
