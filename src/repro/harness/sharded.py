"""Sharded cluster runs: one training simulation across many processes.

``run_spec_sharded`` splits a single :class:`ExperimentSpec` run across
``shards`` processes using a **replicated-control / partitioned-math**
design on top of the conservative window machinery in
:mod:`repro.sim.sharded`:

* **Replicated control.**  Every shard builds the full cluster from the
  spec (deterministic by the golden-stats contract) and replays the
  *identical* event timeline — queue waits, token flow, gap tracking,
  suppression checks and message pricing are value-independent, so all
  shards agree on every simulated time and counter bit-for-bit.  No
  cross-shard event exchange is needed at all: the expensive part that
  is actually partitioned is the numerical math.

* **Partitioned math.**  Each worker is *owned* by exactly one shard
  (:func:`repro.graphs.topology.region_partition`).  Owned workers run
  the real gradient computation; non-owned workers get stub tickets
  from the compute seam (:meth:`repro.ml.compute.ComputePool.stub`:
  zero gradient, no arithmetic) and send :class:`SharedUpdate` payloads
  whose ``params`` are views into the shared-memory parameter plane, where
  the owner published the true values.  An owner therefore always
  reduces over bitwise-true neighbor parameters, and its trajectory is
  bitwise identical to the un-sharded run.

* **Conservative windows.**  The publish-before-read guarantee is the
  classic lookahead argument: a cross-shard update sent at ``t`` is
  consumed at ``t + latency >= t + lookahead`` (lookahead = minimum
  cross-shard link latency, :func:`repro.net.network.
  min_cross_shard_latency`), i.e. in a strictly later window.  One
  barrier per window keeps every shard within one window of its peers,
  so the owner's shared-memory write always lands before any true
  reader's window starts.  Reads on *stub* replicas may race — their
  values feed only other stubs and are never consumed by any owned
  worker or any reported statistic.

* **Deterministic merge.**  Control statistics are identical in every
  shard, so shard 0's :class:`TrainingRun` is the skeleton; per-worker
  numeric results (final parameters via the plane, loss statistics and
  loss trace series via the result queue) come from each worker's
  owner, and the final stack/mean/evaluation replays the exact tail of
  ``ProtocolCluster.run``.  ``--shards 1`` bypasses all of this and is
  the historical ``run_spec`` path, bit-for-bit.

Scope (enforced loudly, see ``_check_shardable``): hop protocol,
scenario-free specs (heterogeneity via ``slowdown`` is fine — it only
shapes timing), no compression, token queues on.  Everything else
raises ``ValueError`` with the reason; ``repro train --shards`` turns
that into a clean CLI error.  When worker processes cannot be spawned
the runner degrades to synchronized threads (same windows, same merge —
bit-identical, just not parallel) with a warning.
"""

from __future__ import annotations

import mmap
import warnings
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.topology import region_partition
from repro.harness.parallel import default_shards
from repro.harness.spec import ExperimentSpec, run_spec
from repro.net.links import uniform_links
from repro.net.network import min_cross_shard_latency
from repro.protocols.base import TrainingRun
from repro.protocols.registry import build_cluster
from repro.sim.sharded import drive_windows

#: Ring depth per worker: the token queues bound any two workers'
#: iteration gap by ``max_ig`` and the window barrier bounds wall-clock
#: skew to one window (< 1 iteration), so ``2 * max_ig + 8`` slots
#: leave a slot's value untouched for the whole span any reader can
#: still reference it.
_RING_MARGIN = 8

#: Per-window barrier timeout: generous enough for any CI cell, small
#: enough that a dead sibling process fails the run instead of hanging.
_BARRIER_TIMEOUT = 300.0

#: Scenario families whose effects are purely *timing* (per-iteration
#: compute slowdown factors drawn from replicated RNG streams).  These
#: replay identically on every shard replica, so they shard safely.
#: Fault families read peer parameters with zero lookahead, churn
#: switches workers to the elastic send path, and link families change
#: latencies after the lookahead was computed — all out of scope.
_TIMING_ONLY_FAMILIES = frozenset(
    {
        "none",
        "clean",
        "random",
        "straggler",
        "deterministic",
        "bursty",
        "markov",
        "tiered",
        "whimpy",
        "diurnal",
        "trace",
    }
)


class SharedUpdate:
    """An :class:`~repro.core.update.Update` whose params live in the
    shared-memory plane.

    Pushed by *stub* (non-owned) workers in place of a real parameter
    copy: ``params`` is a read-only view of the owner's published ring
    slot, resolved lazily at reduce time — which the conservative
    window argument places strictly after the owner's publish.
    Duck-types the ``(params, iteration, sender, matches)`` surface the
    queues and reducers touch.
    """

    __slots__ = ("params", "iteration", "sender")

    def __init__(
        self, ring: np.ndarray, sender: int, iteration: int, slots: int
    ) -> None:
        view = ring[sender, iteration % slots]
        view.flags.writeable = False
        self.params = view
        self.iteration = iteration
        self.sender = sender

    def matches(self, iteration=None, sender=None) -> bool:
        if iteration is not None and self.iteration != iteration:
            return False
        if sender is not None and self.sender != sender:
            return False
        return True

    def __repr__(self) -> str:
        return f"SharedUpdate(iter={self.iteration}, w_id={self.sender})"


class ShardPlane:
    """The fork-shared parameter plane: publish rings + final params.

    Anonymous shared ``mmap`` buffers created in the parent before the
    shard processes fork, so every shard sees the same physical pages
    with zero pickling — the PR 4 flat-parameter contract (one
    contiguous float vector per worker) extended across process
    boundaries.

    Ownership rules (the shared-memory half of the determinism
    contract):

    * ``ring[wid, k % slots]`` is written by exactly one process —
      ``wid``'s owner — at ``wid``'s iteration-``k`` send, and read by
      consumers of that update strictly after the send's window.
    * ``final[wid]`` is written once by the owner after its replica
      finishes and read by the parent only after every shard reported.
    """

    def __init__(self, n: int, dim: int, dtype, slots: int) -> None:
        self.n = n
        self.dim = dim
        self.dtype = np.dtype(dtype)
        self.slots = slots
        itemsize = self.dtype.itemsize
        self._ring_map = mmap.mmap(-1, max(1, n * slots * dim * itemsize))
        self._final_map = mmap.mmap(-1, max(1, n * dim * itemsize))
        self.ring = np.frombuffer(self._ring_map, dtype=self.dtype).reshape(
            n, slots, dim
        )
        self.final = np.frombuffer(self._final_map, dtype=self.dtype).reshape(
            n, dim
        )


def resolve_shards(shards: Optional[int]) -> int:
    """Explicit argument, else the configured/env default (1)."""
    if shards is None or shards <= 0:
        return default_shards()
    return shards


def _check_shardable(spec: ExperimentSpec) -> None:
    """Reject specs outside the sharded engine's determinism envelope.

    The replicated-control argument needs every *control* decision to
    be value-independent and every cross-replica data read to go
    through the plane.  Fault/churn scenarios break that (crash resync
    reads a peer's live parameters with zero lookahead) and compressed
    payload content is value-dependent, so both are out of scope — by
    loud error, never by silently wrong numbers.
    """
    reasons = []
    if spec.protocol != "hop":
        reasons.append(
            f"protocol {spec.protocol!r} (only 'hop' runs sharded)"
        )
    if (
        spec.scenario is not None
        and spec.scenario.family not in _TIMING_ONLY_FAMILIES
    ):
        reasons.append(
            f"scenario family {spec.scenario.family!r} (only "
            "timing-only slowdown scenarios replicate; faults read "
            "peer state with zero lookahead, churn rewires sends, and "
            "link scenarios invalidate the build-time lookahead)"
        )
    if spec.compression is not None:
        reasons.append(
            "compression (encoded payload content is value-dependent)"
        )
    if spec.protocol == "hop" and not spec.config.use_token_queues:
        reasons.append(
            "use_token_queues=False (the ring depth relies on the "
            "token-bounded iteration gap)"
        )
    if reasons:
        raise ValueError(
            "spec cannot run sharded: " + "; ".join(reasons)
            + ".  Run with --shards 1."
        )


def shard_plan(
    spec: ExperimentSpec, shards: int
) -> Tuple[Tuple[Tuple[int, ...], ...], float]:
    """Regions and conservative lookahead for ``spec`` at ``shards``.

    Returns ``(regions, lookahead)``; raises when the lookahead is not
    positive (a zero-latency cross-shard link admits no conservative
    window).
    """
    regions = region_partition(spec.topology, shards)
    links = spec.links or uniform_links()
    lookahead = min_cross_shard_latency(
        links, regions, edges=spec.topology.edges
    )
    if lookahead <= 0:
        raise ValueError(
            "spec cannot run sharded: a cross-shard link has zero "
            "latency, so no conservative lookahead window exists"
        )
    return regions, lookahead


# ----------------------------------------------------------------------
# Worker patching: owners publish, stubs reference
# ----------------------------------------------------------------------
def _patch_owner(worker, plane: ShardPlane) -> None:
    """Wrap the real send so every payload is published to the ring."""
    original = worker._send
    ring = plane.ring
    slots = plane.slots
    wid = worker.wid

    def publishing_send(params: np.ndarray, iteration: int) -> None:
        if params.dtype != ring.dtype:
            raise RuntimeError(
                f"worker {wid} sent {params.dtype} parameters into a "
                f"{ring.dtype} plane; the sharded engine requires a "
                "stable parameter dtype"
            )
        ring[wid, iteration % slots, :] = params
        original(params, iteration)

    worker._send = publishing_send


def _patch_stub(worker, plane: ShardPlane) -> None:
    """Stub the worker's compute tickets and send plane references.

    The stub's own parameter trajectory is garbage by design — nothing
    owned ever consumes it: its outgoing updates carry plane views of
    the owner's true values, and its final params / loss stats are
    replaced by the owner's during the merge.
    """
    ring = plane.ring
    slots = plane.slots
    wid = worker.wid
    worker.compute.stub(worker.model)

    # HopWorker._send with the payload swapped for a plane reference
    # (static runs only — the scenario gate keeps membership runs
    # un-sharded).  The golden bitwise tests pin it against the real
    # send.
    def stub_send(params: np.ndarray, iteration: int) -> None:
        update = SharedUpdate(ring, wid, iteration, slots)
        worker.update_queue.enqueue(update)
        worker._fan_out(update, iteration)

    worker._send = stub_send


# ----------------------------------------------------------------------
# One shard's run
# ----------------------------------------------------------------------
def _shard_run(
    spec: ExperimentSpec,
    shard: int,
    owned: Set[int],
    plane: ShardPlane,
    lookahead: float,
    barrier,
    out_queue,
    clock,
) -> None:
    """Execute one shard replica and report its slice of the results."""
    try:
        cluster = build_cluster(spec.with_())
        # The merged evaluation happens once, in the parent, on the
        # true final mean; every replica's own tail evaluation would be
        # wrong (stub params) and wasted.
        cluster.evaluate = False
        window_stats = {}

        def patch(runtime) -> None:
            for worker in cluster._workers:
                if worker.wid in owned:
                    _patch_owner(worker, plane)
                else:
                    _patch_stub(worker, plane)

        def drive(env) -> None:
            stats = drive_windows(
                env,
                lookahead,
                sync=lambda end: barrier.wait(timeout=_BARRIER_TIMEOUT),
                clock=clock,
            )
            window_stats["events"] = stats.events
            window_stats["windows"] = stats.windows
            window_stats["sync_wait_seconds"] = stats.sync_wait_seconds

        cluster._post_start_hook = patch
        cluster._drive_hook = drive
        run = cluster.run()

        for worker in cluster._workers:
            if worker.wid in owned:
                plane.final[worker.wid, :] = worker.final_params
        loss_series = {
            wid: run.tracer.raw(f"loss/{wid}")
            for wid in owned
            if run.tracer.enabled(f"loss/{wid}")
        }
        out_queue.put(
            {
                "shard": shard,
                "owned": sorted(owned),
                "worker_stats": {
                    wid: run.worker_stats[wid] for wid in owned
                },
                "loss_series": loss_series,
                "window_stats": window_stats,
                "run": run if shard == 0 else None,
            }
        )
    except BaseException as error:
        try:
            barrier.abort()
        except Exception:  # pragma: no cover - barrier already broken
            pass
        out_queue.put({"shard": shard, "error": repr(error)})
        raise


# ----------------------------------------------------------------------
# Merge: shard 0's control skeleton + each owner's numerics
# ----------------------------------------------------------------------
def _merge_results(
    spec: ExperimentSpec,
    plane: ShardPlane,
    messages: List[dict],
) -> Tuple[TrainingRun, List[dict]]:
    failures = [m for m in messages if "error" in m]
    if failures:
        details = ", ".join(
            f"shard {m['shard']}: {m['error']}" for m in failures
        )
        raise RuntimeError(f"sharded run failed ({details})")
    skeleton = next(m["run"] for m in messages if m["shard"] == 0)

    for message in messages:
        if message["shard"] == 0:
            continue
        for wid, stats in message["worker_stats"].items():
            skeleton.worker_stats[wid] = stats
        for wid, pairs in message["loss_series"].items():
            skeleton.tracer.replace(f"loss/{wid}", pairs)

    # Replay the exact tail of ProtocolCluster.run on the true final
    # parameters: same stack layout, same mean, same evaluation model
    # (set_params overwrites the whole flat vector, so one fresh
    # replica evaluates bitwise-identically to the run's models[0]).
    final_stack = np.atleast_2d(plane.final.copy())
    final_params = final_stack.mean(axis=0)
    parent = build_cluster(spec.with_())
    final_loss = final_accuracy = None
    if parent.evaluate:
        model = parent.model_factory(parent.streams.fresh("model-init"))
        model.set_params(final_params)
        final_loss, final_accuracy = model.evaluate(
            parent.dataset.x_test, parent.dataset.y_test
        )
    skeleton.final_params = final_params
    skeleton.final_loss = final_loss
    skeleton.final_accuracy = final_accuracy
    skeleton.consensus = parent._consensus(final_stack)

    shard_rows = [
        {
            "shard": message["shard"],
            "owned_workers": len(message["owned"]),
            "events": message["window_stats"].get("events", 0),
            "windows": message["window_stats"].get("windows", 0),
            "sync_wait_seconds": message["window_stats"].get(
                "sync_wait_seconds", 0.0
            ),
        }
        for message in sorted(messages, key=lambda m: m["shard"])
    ]
    return skeleton, shard_rows


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_spec_sharded_with_stats(
    spec: ExperimentSpec,
    shards: Optional[int] = None,
    processes: bool = True,
    clock=None,
) -> Tuple[TrainingRun, List[dict]]:
    """Like :func:`run_spec_sharded` but also returns per-shard rows.

    Each row reports the shard's owned-worker count, processed event
    count, window count and idle/sync-wait seconds (when ``clock`` — a
    monotonic-seconds callable such as ``time.perf_counter`` — is
    supplied).  With one shard the row list is empty and the run is the
    plain ``run_spec`` result.
    """
    n_shards = resolve_shards(shards)
    if n_shards == 1:
        return run_spec(spec), []
    _check_shardable(spec)
    n_shards = min(n_shards, len(spec.topology.active_nodes()))
    if n_shards <= 1:
        return run_spec(spec), []
    regions, lookahead = shard_plan(spec, n_shards)

    sizer = build_cluster(spec.with_())
    params = sizer.model_factory(
        sizer.streams.fresh("model-init")
    ).get_params()
    slots = 2 * sizer.config.max_ig + _RING_MARGIN
    plane = ShardPlane(
        spec.topology.n, params.size, params.dtype, slots
    )

    messages = _execute_shards(
        spec, regions, plane, lookahead, processes, clock
    )
    return _merge_results(spec, plane, messages)


def run_spec_sharded(
    spec: ExperimentSpec,
    shards: Optional[int] = None,
    processes: bool = True,
) -> TrainingRun:
    """Run ``spec`` across ``shards`` processes; bit-equal to ``run_spec``.

    ``shards=None`` resolves through ``set_default_shards`` /
    ``REPRO_SHARDS`` (default 1, which takes the historical un-sharded
    path exactly).  See the module docstring for the design and
    ``_check_shardable`` for the supported envelope.
    """
    run, _ = run_spec_sharded_with_stats(
        spec, shards=shards, processes=processes
    )
    return run


def _execute_shards(
    spec: ExperimentSpec,
    regions: Sequence[Sequence[int]],
    plane: ShardPlane,
    lookahead: float,
    processes: bool,
    clock,
) -> List[dict]:
    if processes:
        try:
            return _execute_processes(spec, regions, plane, lookahead, clock)
        except OSError as error:
            warnings.warn(
                f"shard processes unavailable ({error!r}); running "
                f"{len(regions)} shards on synchronized threads",
                RuntimeWarning,
                stacklevel=3,
            )
    return _execute_threads(spec, regions, plane, lookahead, clock)


def _execute_processes(
    spec, regions, plane, lookahead, clock
) -> List[dict]:
    import multiprocessing

    mp = multiprocessing.get_context("fork")
    barrier = mp.Barrier(len(regions))
    out_queue = mp.SimpleQueue()
    shard_procs = [
        mp.Process(
            target=_shard_run,
            args=(
                spec,
                shard,
                set(region),
                plane,
                lookahead,
                barrier,
                out_queue,
                clock,
            ),
            daemon=True,
        )
        for shard, region in enumerate(regions)
    ]
    for proc in shard_procs:
        proc.start()
    messages = []
    try:
        for _ in shard_procs:
            messages.append(out_queue.get())
    finally:
        for proc in shard_procs:
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - hung shard
                proc.terminate()
                proc.join()
    return messages


def _execute_threads(spec, regions, plane, lookahead, clock) -> List[dict]:
    import queue as queue_module
    import threading

    barrier = threading.Barrier(len(regions))
    out_queue = queue_module.Queue()
    threads = [
        threading.Thread(
            target=_swallow_reraise(_shard_run),
            args=(
                spec,
                shard,
                set(region),
                plane,
                lookahead,
                barrier,
                out_queue,
                clock,
            ),
            daemon=True,
        )
        for shard, region in enumerate(regions)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [out_queue.get() for _ in threads]


def _swallow_reraise(target):
    """Thread wrapper: _shard_run already reports its error through the
    queue; re-raising in a daemon thread would only spam stderr."""

    def wrapped(*args):
        try:
            target(*args)
        except BaseException:
            pass

    return wrapped
