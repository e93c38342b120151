"""Profiling and simulator-core benchmarking utilities.

Two entry points back ``repro profile`` (and ``scripts/profile_sim.py``):

* :func:`profile_spec` — run one :class:`~repro.harness.spec
  .ExperimentSpec` under :mod:`cProfile` and return the stats report
  plus throughput counters (iterations/sec, messages/sec of real time),
  the exact heap-entry count per worker-iteration and the compute
  pool's four counters (tickets, flushes, stacked, fallback).
* :func:`sim_core_events_per_sec` — a pure discrete-event-engine
  microbenchmark (no ML, no protocols): many processes churning
  timeouts through one :class:`~repro.sim.engine.Environment`.  Its
  events/sec number tracks the engine fast path in isolation, so an
  accidental O(n^2) or a de-inlined hot loop shows up immediately
  (scripts/ci.sh guards a generous floor).

* :func:`model_step_budget` — one model step (``loss_and_grad``) split
  by layer: forward, backward and loss microseconds, timed in place
  inside the real call sequence.  ``repro profile`` prints it for every
  training spec; a kernel change starts from this table.

A fourth backs the sharded engine (PR 10):

* :func:`sharded_events_per_sec` — the same ticker workload pushed
  through :class:`~repro.sim.sharded.ShardedEngine`, partitioned
  across shards with periodic cross-shard traffic.  Tracks the
  windowed fast path plus fabric overhead; on a multi-core machine
  the multi-shard number should beat one shard, on a single-core
  machine it measures the (bounded) coordination tax.

``profile_spec`` accepts ``shards``: a sharded profile additionally
reports per-shard event counts, window counts and idle/sync-wait
seconds (the ``repro profile --shards N`` rows).
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.harness.spec import ExperimentSpec
from repro.protocols.registry import build_cluster
from repro.sim.engine import Environment
from repro.sim.sharded import ShardContext, ShardedEngine


@dataclass
class ProfileReport:
    """Outcome of one profiled training run."""

    elapsed_seconds: float
    iterations: int
    messages: int
    #: Heap entries the run scheduled (exact, host-independent).
    events: int
    sim_wall_time: float
    stats_text: str
    shards: int = 1
    #: One dict per shard (sharded runs only): ``shard``,
    #: ``owned_workers``, ``events``, ``windows``, ``sync_wait_seconds``.
    shard_rows: List[dict] = field(default_factory=list)
    #: The run's :class:`~repro.ml.compute.ComputePool` (exact counts;
    #: ``None`` for a sharded run, whose pools live in the shards).
    compute: Optional[object] = None

    @property
    def iterations_per_second(self) -> float:
        return self.iterations / self.elapsed_seconds

    @property
    def messages_per_second(self) -> float:
        return self.messages / self.elapsed_seconds

    @property
    def events_per_iteration(self) -> float:
        """Heap entries per worker-iteration: the engine's work count,
        exact where iterations/sec is at the mercy of the host."""
        return self.events / self.iterations

    def render(self) -> str:
        lines = [
            f"elapsed          : {self.elapsed_seconds:.3f}s (real)",
            f"simulated time   : {self.sim_wall_time:.3f}s",
            f"iterations       : {self.iterations} "
            f"({self.iterations_per_second:,.0f}/s real)",
            f"messages         : {self.messages} "
            f"({self.messages_per_second:,.0f}/s real)",
            f"events scheduled : {self.events} "
            f"({self.events_per_iteration:.2f} per worker-iteration)",
        ]
        if self.shards > 1:
            lines.append(f"shards           : {self.shards}")
            for row in self.shard_rows:
                lines.append(
                    f"  shard {row['shard']}: "
                    f"{row['owned_workers']} workers, "
                    f"{row['events']} events over {row['windows']} "
                    f"windows, sync-wait {row['sync_wait_seconds']:.3f}s"
                )
        lines.extend(["", self.stats_text])
        return "\n".join(lines)

    def render_compute(self) -> str:
        """The compute seam's counters: how many workers' gradients one
        evaluation served, and through which kernel."""
        pool = self.compute
        return (
            f"compute pool     : {pool.tickets} tickets in {pool.flushes} "
            f"flushes (mean batch {pool.mean_batch:.1f}), "
            f"{pool.stacked} stacked, {pool.fallback} fallback"
        )


def profile_spec(
    spec: ExperimentSpec,
    sort: str = "cumulative",
    limit: int = 25,
    warmup: bool = True,
    shards: Optional[int] = None,
) -> ProfileReport:
    """Profile one spec run and summarize the hot functions.

    Args:
        spec: The experiment to run.
        sort: ``pstats`` sort key (``cumulative``, ``tottime``, ...).
        limit: Number of rows in the stats table.
        warmup: Run once unprofiled first so one-time costs (index
            plans, BLAS initialization) do not pollute the profile.
        shards: Run through :func:`repro.harness.sharded
            .run_spec_sharded_with_stats` and attach per-shard rows
            (event counts, windows, idle/sync-wait).  ``None``/1 is
            the plain ``run_spec`` path.  The cProfile table covers
            the parent process only — shard processes do their work
            out of the profiler's sight; the shard rows carry their
            side of the story.
    """
    from repro.harness.sharded import (
        resolve_shards,
        run_spec_sharded_with_stats,
    )

    n_shards = resolve_shards(shards)

    def execute():
        if n_shards > 1:
            run, shard_rows = run_spec_sharded_with_stats(
                spec, shards=n_shards, clock=time.perf_counter
            )
            return run, shard_rows, None
        cluster = build_cluster(spec)
        return cluster.run(), [], cluster.runtime.compute

    if warmup:
        execute()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    run, shard_rows, compute = execute()
    profiler.disable()
    elapsed = time.perf_counter() - start

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(limit)
    return ProfileReport(
        elapsed_seconds=elapsed,
        iterations=sum(run.iterations_completed),
        messages=run.messages_sent,
        events=run.events_scheduled,
        sim_wall_time=run.wall_time,
        stats_text=stream.getvalue(),
        shards=n_shards,
        shard_rows=shard_rows,
        compute=compute,
    )


@dataclass
class StepBudget:
    """Where one ``loss_and_grad`` goes: median microseconds per call."""

    #: One ``(repr(layer), forward_us, backward_us)`` row per layer.
    layers: List[tuple]
    loss_us: float
    total_us: float

    def render(self) -> str:
        width = max(len(name) for name, _, _ in self.layers)
        lines = [
            f"{'layer':<{width}}  {'forward us':>10}  {'backward us':>11}"
        ]
        for name, forward, backward in self.layers:
            lines.append(
                f"{name:<{width}}  {forward:>10.1f}  {backward:>11.1f}"
            )
        timed = self.loss_us + sum(f + b for _, f, b in self.layers)
        lines.append(f"{'loss':<{width}}  {self.loss_us:>10.1f}")
        lines.append(
            f"{'total':<{width}}  {self.total_us:>10.1f}  "
            f"({self.total_us - timed:.1f} outside the layers)"
        )
        return "\n".join(lines)


def model_step_budget(
    model, x, y, repeats: int = 200, warmup: int = 20
) -> StepBudget:
    """Per-layer cost of one ``model.loss_and_grad(x, y)``.

    Each layer's ``forward`` / ``backward`` and the loss's
    ``value_and_grad`` are wrapped on the instance for the duration of
    the call and the model's own ``loss_and_grad`` drives them, so every
    kernel sees the operands (layout, cache state) it sees in training:
    a layer timed alone on a fresh contiguous array can read half or
    twice what it costs behind its real predecessor.  Medians over
    ``repeats`` steps after ``warmup`` untimed ones; parameters are not
    updated, and the wrappers are removed before returning.
    """
    clock = time.perf_counter
    layers = model.network.layers
    # spans[2 * i] is layer i's forward, spans[2 * i + 1] its backward,
    # spans[-1] the loss; one list of per-step seconds each.
    spans: List[List[float]] = [[] for _ in range(2 * len(layers) + 1)]
    totals: List[float] = []

    def timed(call, samples):
        def wrapper(*args, **kwargs):
            start = clock()
            result = call(*args, **kwargs)
            samples.append(clock() - start)
            return result

        return wrapper

    loss = model.loss
    for index, layer in enumerate(layers):
        layer.forward = timed(layer.forward, spans[2 * index])
        layer.backward = timed(layer.backward, spans[2 * index + 1])
    loss.value_and_grad = timed(loss.value_and_grad, spans[-1])
    try:
        for _ in range(warmup + repeats):
            start = clock()
            model.loss_and_grad(x, y)
            totals.append(clock() - start)
    finally:
        # Instance attributes only: the classes' methods show again.
        for layer in layers:
            del layer.forward, layer.backward
        del loss.value_and_grad

    def median_us(samples: List[float]) -> float:
        kept = sorted(samples[warmup:])
        return 1e6 * kept[len(kept) // 2]

    return StepBudget(
        layers=[
            (
                repr(layer),
                median_us(spans[2 * index]),
                median_us(spans[2 * index + 1]),
            )
            for index, layer in enumerate(layers)
        ],
        loss_us=median_us(spans[-1]),
        total_us=median_us(totals),
    )


def sim_core_events_per_sec(
    n_processes: int = 64,
    events_per_process: int = 2000,
    repeats: int = 3,
    seed_offset: float = 0.0,
) -> float:
    """Events per second through the bare engine (best of ``repeats``).

    Each process yields ``events_per_process`` timeouts with slightly
    different delays (so the heap actually interleaves processes rather
    than draining one at a time).  No numpy, no protocol state — this
    isolates Event/Timeout allocation, heap scheduling and process
    resumption.
    """

    def ticker(env: Environment, delay: float, count: int):
        timeout = env.timeout
        for _ in range(count):
            yield timeout(delay)

    total_events = n_processes * events_per_process
    best = float("inf")
    for _ in range(repeats):
        env = Environment()
        for i in range(n_processes):
            env.process(
                ticker(env, 1.0 + seed_offset + i * 1e-3, events_per_process)
            )
        start = time.perf_counter()
        env.run()
        best = min(best, time.perf_counter() - start)
    return total_events / best


def _sharded_ticker_build(
    n_processes: int, events_per_process: int, cross_period: int
):
    """Workload factory for :func:`sharded_events_per_sec`.

    Each shard runs its slice of the tickers, plus one courier process
    that pings the next shard every ``cross_period`` time units — so
    the benchmark exercises the outbox/merge fabric, not just the
    private window loop.  Must be a top-level closure-free callable
    chain so it survives the fork into shard processes.
    """

    def ticker(env, delay: float, count: int):
        timeout = env.timeout
        for _ in range(count):
            yield timeout(delay)

    def courier(ctx: ShardContext, pings: int):
        dst = (ctx.shard + 1) % ctx.n_shards
        delay = max(ctx.lookahead, float(cross_period))
        for _ in range(pings):
            ctx.send(dst, delay, payload=ctx.shard)
            yield ctx.env.timeout(cross_period)

    def build(ctx: ShardContext) -> None:
        base, extra = divmod(n_processes, ctx.n_shards)
        mine = base + (1 if ctx.shard < extra else 0)
        for i in range(mine):
            ctx.env.process(
                ticker(ctx.env, 1.0 + ctx.shard * 1e-2 + i * 1e-3,
                       events_per_process)
            )
        if ctx.n_shards > 1 and mine:
            pings = max(1, events_per_process // max(1, cross_period))
            ctx.on_message = lambda _ctx, _payload: None
            ctx.env.process(courier(ctx, pings))

    return build


def sharded_events_per_sec(
    n_shards: int = 2,
    n_processes: int = 64,
    events_per_process: int = 2000,
    repeats: int = 3,
    processes: bool = True,
    cross_period: int = 50,
) -> float:
    """Events/sec through the sharded engine (best of ``repeats``).

    The :func:`sim_core_events_per_sec` ticker workload partitioned
    across ``n_shards`` :class:`~repro.sim.sharded.ShardedEngine`
    shards with cross-shard pings every ``cross_period`` simulated
    time units.  ``n_shards=1`` degenerates to a windowed
    single-shard run — the honest baseline for the speedup ratio.
    With more shards than cores the number reports the coordination
    tax rather than a speedup; callers asserting a floor should scale
    it by the visible CPU count.
    """
    build = _sharded_ticker_build(
        n_processes, events_per_process, cross_period
    )
    best = float("inf")
    total = 0
    for _ in range(repeats):
        engine = ShardedEngine(n_shards, lookahead=1.0, build=build)
        start = time.perf_counter()
        report = engine.run(processes=processes)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            total = report.total_events
    return total / best
