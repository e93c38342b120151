"""Profiling and simulator-core benchmarking utilities.

Three entry points back ``repro profile``:

* :func:`profile_spec` — run one :class:`~repro.harness.spec
  .ExperimentSpec` under :mod:`cProfile` and return the stats report
  plus throughput counters (iterations/sec, messages/sec of real time),
  the exact heap-entry and function-call counts per worker-iteration,
  the compute pool's six counters (tickets, flushes, stacked, fallback;
  the replay's levels and rows), the garbage collector's passes during
  the run (:class:`GcWork`) and the process's peak resident set.
* :func:`sim_core_events_per_sec` — a pure discrete-event-engine
  microbenchmark (no ML, no protocols): many processes churning
  timeouts through one :class:`~repro.sim.engine.Environment`.  Its
  events/sec number tracks the engine fast path in isolation, so an
  accidental O(n^2) or a de-inlined hot loop shows up immediately
  (scripts/ci.sh guards a generous floor).
* :func:`model_step_budget` — one model step (``loss_and_grad``) split
  by layer: forward, backward and loss microseconds, timed in place
  inside the real call sequence, and the step's traced peak bytes.
  ``repro profile`` prints it for every training spec; a kernel change
  starts from this table.
"""

from __future__ import annotations

import cProfile
import gc
import io
import pstats
import resource
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.harness.spec import ExperimentSpec
from repro.protocols.registry import build_cluster
from repro.sim.engine import Environment


@dataclass(eq=False)  # gc.callbacks.remove() must find this instance
class GcWork:
    """The garbage collector's passes while installed in
    ``gc.callbacks``: collections and seconds, per generation."""

    collections: List[int] = field(default_factory=lambda: [0, 0, 0])
    seconds: List[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    _started: float = field(default=0.0, repr=False)

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._started

    def render(self) -> str:
        return ", ".join(
            f"gen{generation} {count} ({1e3 * seconds:.1f} ms)"
            for generation, (count, seconds) in enumerate(
                zip(self.collections, self.seconds)
            )
        )


@dataclass
class ProfileReport:
    """Outcome of one profiled training run."""

    elapsed_seconds: float
    iterations: int
    messages: int
    #: Heap entries the run scheduled (exact, host-independent).
    events: int
    #: Function calls the profiler saw (the ``pstats`` total, less the
    #: profiler's own GC callback): the interpreter's work count, exact
    #: for one tree and interpreter.
    calls: int
    sim_wall_time: float
    stats_text: str
    #: The run's :class:`~repro.ml.compute.ComputePool` (exact counts).
    compute: object
    #: Garbage-collector passes during the profiled run.
    gc: GcWork
    #: The process's peak resident set (``ru_maxrss``) after the run.
    peak_rss_mb: float

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

    @property
    def calls_per_iteration(self) -> float:
        """Function calls per worker-iteration: what a worker-iteration
        costs the interpreter, counted, not timed."""
        return self.calls / self.iterations

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
            f"function calls   : {self.calls} "
            f"({self.calls_per_iteration:.2f} per worker-iteration)",
            f"gc collections   : {self.gc.render()}",
            f"peak resident    : {self.peak_rss_mb:.1f} MB (process)",
        ]
        lines.extend(["", self.stats_text])
        return "\n".join(lines)

    def render_compute(self) -> str:
        """The compute seam's counters: how many workers' gradients one
        evaluation served, and through which kernel."""
        pool = self.compute
        return (
            f"compute pool     : {pool.tickets} tickets in {pool.flushes} "
            f"flushes (mean batch {pool.mean_batch:.1f}), "
            f"{pool.stacked} stacked, {pool.fallback} fallback; "
            f"replay {pool.rows} rows in {pool.levels} levels"
        )


def profile_spec(
    spec: ExperimentSpec,
    sort: str = "cumulative",
    limit: int = 25,
    warmup: bool = True,
) -> ProfileReport:
    """Profile one spec run and summarize the hot functions.

    Args:
        spec: The experiment to run.
        sort: ``pstats`` sort key (``cumulative``, ``tottime``, ...).
        limit: Number of rows in the stats table.
        warmup: Run once unprofiled first so one-time costs (index
            plans, BLAS initialization) do not pollute the profile.
    """

    def execute():
        cluster = build_cluster(spec)
        return cluster.run(), cluster.runtime.compute

    if warmup:
        execute()
    profiler = cProfile.Profile()
    gc_work = GcWork()
    gc.callbacks.append(gc_work)
    start = time.perf_counter()
    profiler.enable()
    try:
        run, compute = execute()
    finally:
        profiler.disable()
        gc.callbacks.remove(gc_work)
    elapsed = time.perf_counter() - start

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(limit)
    return ProfileReport(
        elapsed_seconds=elapsed,
        iterations=sum(run.iterations_completed),
        messages=run.messages_sent,
        events=run.events_scheduled,
        calls=stats.total_calls - _calls_of(stats, GcWork.__call__),
        sim_wall_time=run.wall_time,
        stats_text=stream.getvalue(),
        compute=compute,
        gc=gc_work,
        peak_rss_mb=peak_rss_mb(),
    )


def _calls_of(stats: pstats.Stats, function) -> int:
    """Calls of ``function`` and the calls it made: the profiler's own
    garbage-collector callback, whose passes depend on what the process
    allocated before the run, not on the run."""
    code = function.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    if key not in stats.stats:
        return 0
    calls = stats.stats[key][1]
    for *_, callers in stats.stats.values():
        if key in callers:
            calls += callers[key][1]
    return calls


def peak_rss_mb() -> float:
    """This process's peak resident set in MB: ``ru_maxrss`` is in
    kilobytes on Linux and in bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


@dataclass
class StepBudget:
    """Where one ``loss_and_grad`` goes: median microseconds per call."""

    #: One ``(repr(layer), forward_us, backward_us)`` row per layer.
    layers: List[tuple]
    loss_us: float
    total_us: float
    #: Per timed step: ``(seconds inside the layers and the loss, the
    #: step's seconds)``.
    steps: List[Tuple[float, float]] = field(default_factory=list)
    #: Peak bytes ``tracemalloc`` saw one warm step allocate above what
    #: was traced when it began: exact for one tree, unlike the times.
    peak_bytes: int = 0

    def outside_us(self) -> float:
        """Median over the timed steps of a step's microseconds outside
        every layer span and the loss (the median total less the sum of
        the spans' medians is not any one step's)."""
        gaps = sorted(total - inside for inside, total in self.steps)
        return 1e6 * gaps[len(gaps) // 2]

    def render(self) -> str:
        width = max(len(name) for name, _, _ in self.layers)
        lines = [
            f"{'layer':<{width}}  {'forward us':>10}  {'backward us':>11}"
        ]
        for name, forward, backward in self.layers:
            lines.append(
                f"{name:<{width}}  {forward:>10.1f}  {backward:>11.1f}"
            )
        lines.append(f"{'loss':<{width}}  {self.loss_us:>10.1f}")
        lines.append(
            f"{'total':<{width}}  {self.total_us:>10.1f}  "
            f"({self.outside_us():.1f} outside the layers)"
        )
        lines.append(f"traced peak of one step: {self.peak_bytes:,} B")
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
    updated, and the wrappers are removed before returning.  One more
    step, unwrapped, runs under ``tracemalloc`` for ``peak_bytes``.
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
    steps = []
    try:
        for _ in range(warmup + repeats):
            marks = [len(samples) for samples in spans]
            start = clock()
            model.loss_and_grad(x, y)
            totals.append(clock() - start)
            inside = sum(
                sum(samples[mark:]) for samples, mark in zip(spans, marks)
            )
            steps.append((inside, totals[-1]))
    finally:
        # Instance attributes only: the classes' methods show again.
        for layer in layers:
            del layer.forward, layer.backward
        del loss.value_and_grad
    peak_bytes = traced_peak_bytes(lambda: model.loss_and_grad(x, y))

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
        steps=steps[warmup:],
        peak_bytes=peak_bytes,
    )


def traced_peak_bytes(call) -> int:
    """Peak bytes traced while ``call()`` runs, above what was traced
    when it began; starts and stops ``tracemalloc`` unless it is already
    tracing.  A ``sys.settrace`` hook (a coverage collector) is off
    meanwhile: what it records is not the call's."""
    trace = sys.gettrace()
    sys.settrace(None)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        # A reading's int is allocated after the reading: the second
        # reading counts the first one's, which its own replaces.
        before = tracemalloc.get_traced_memory()[0]
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
        sys.settrace(trace)


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

