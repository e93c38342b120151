"""Slowdown models and the compute-time oracle they feed.

A slowdown model maps ``(worker, iteration) -> multiplicative factor``
applied to the iteration's compute time; :class:`ComputeModel` turns
it into simulated seconds.  The paper injects heterogeneity two ways:

* Section 7.3.1: "randomly slowing down every worker by 6 times at a
  probability of 1/n in each iteration" -> :class:`RandomSlowdown`.
* Section 7.3.5: "one worker is deterministically chosen for a 4 times
  slowdown" -> :class:`DeterministicSlowdown`.

Follow-up systems show real clusters are messier, and each model
below those two encodes one of those regimes:

* :class:`MarkovSlowdown` — *dynamic* stragglers whose identity shifts
  over time (Prague's motivation, arXiv:1909.08029): each worker
  carries a two-state Markov chain (normal / slow) so slow phases come
  in bursts instead of independent per-iteration coin flips.
* :class:`TieredSlowdown` — persistently tiered ("whimpy" vs "brawny")
  hardware, the HetPipe setting (arXiv:2005.14038): every worker is
  permanently assigned a tier factor.
* :class:`DiurnalSlowdown` — shared-cluster interference that follows a
  smooth periodic load curve, phase-shifted per worker.

Factors compose multiplicatively via :class:`ComposedSlowdown`.  All
models obey the :class:`SlowdownModel` contract: factors >= 1,
deterministic in the seed, query-order independent.  Trace
record/replay lives in :mod:`repro.scenarios.trace`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.sim.rng import RngStreams


class SlowdownModel:
    """Base class: multiplicative compute-time factor per (worker, iter).

    Contract (relied on by the scenario engine and its property tests):
    ``factor`` must be >= 1, deterministic given the model's seed, and
    independent of the order in which ``(worker, iteration)`` pairs are
    queried.
    """

    def factor(self, worker: int, iteration: int) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class NoSlowdown(SlowdownModel):
    """Homogeneous execution."""

    def factor(self, worker: int, iteration: int) -> float:
        return 1.0

    def describe(self) -> str:
        return "none"


class RandomSlowdown(SlowdownModel):
    """Each worker is slowed ``factor``x w.p. ``probability`` per iteration.

    The paper uses ``factor=6`` and ``probability=1/n``.  Each worker
    draws from its own counter-based PCG64 stream: the draw for
    ``(worker, iteration)`` is the ``iteration``-th output of the
    worker's generator, obtained by advancing to that counter rather
    than by consuming a shared stateful stream.  This makes queries
    stateless — no per-(worker, iteration) memo that grows without
    bound over long runs — and, because PCG64 consumes one state step
    per ``random()`` call, it produces *exactly* the factors the
    original memoized implementation produced for dense in-order
    access (every non-skipping run; the regression test pins this).
    Runs using hop's skip/jump policy query a sparse iteration
    subsequence, where the legacy scheme handed out the q-th draw for
    the q-th *query*; those runs now get the properly
    iteration-indexed draw instead, so their same-seed factors
    changed (to the semantics the iteration index always implied).
    """

    def __init__(
        self,
        streams: RngStreams,
        factor: float = 6.0,
        probability: float = 1.0 / 16.0,
    ) -> None:
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self._streams = streams
        self.slow_factor = float(factor)
        self.probability = float(probability)
        #: Expanded per-worker PCG64 start states (seeding is the
        #: expensive part; the state dict is O(workers), not O(iters)).
        self._worker_states: Dict[int, dict] = {}
        #: One reusable bit generator + wrapper; its state is
        #: overwritten on every query, so no draw history survives.
        self._bits = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bits)

    def _worker_state(self, worker: int) -> dict:
        # Only the expanded PCG64 start state of the worker's
        # ("slowdown", worker) stream is kept.
        if worker not in self._worker_states:
            self._worker_states[worker] = self._streams.fresh(
                "slowdown", worker
            ).bit_generator.state
        return self._worker_states[worker]

    def factor(self, worker: int, iteration: int) -> float:
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
        self._bits.state = self._worker_state(worker)
        self._bits.advance(iteration)
        draw = self._gen.random()
        return self.slow_factor if draw < self.probability else 1.0

    def describe(self) -> str:
        return f"random({self.slow_factor:g}x, p={self.probability:g})"


class DeterministicSlowdown(SlowdownModel):
    """Fixed per-worker slowdowns (persistent stragglers).

    ``factors={3: 4.0}`` makes worker 3 permanently 4x slower — the
    paper's Figure 18/19 setting.
    """

    def __init__(self, factors: Dict[int, float]) -> None:
        for worker, factor in factors.items():
            if factor < 1.0:
                raise ValueError(
                    f"worker {worker} slowdown must be >= 1, got {factor}"
                )
        self.factors = dict(factors)

    def factor(self, worker: int, iteration: int) -> float:
        return self.factors.get(worker, 1.0)

    def describe(self) -> str:
        inner = ", ".join(f"{w}:{f:g}x" for w, f in sorted(self.factors.items()))
        return f"deterministic({inner})"


class ComposedSlowdown(SlowdownModel):
    """Product of several slowdown models (random on top of persistent)."""

    def __init__(self, models: Sequence[SlowdownModel]) -> None:
        if not models:
            raise ValueError("ComposedSlowdown needs at least one model")
        self.models = list(models)

    def factor(self, worker: int, iteration: int) -> float:
        result = 1.0
        for model in self.models:
            result *= model.factor(worker, iteration)
        return result

    def describe(self) -> str:
        return " * ".join(model.describe() for model in self.models)


class ComputeModel:
    """Compute-time oracle for workers.

    Gradient computation is numerically real but its *duration* is
    simulated: ``duration = base_time(worker) * slowdown(worker,
    iter)``.  Base times may differ per worker (hardware
    heterogeneity); the slowdown model injects everything else.

    Args:
        base_time: Scalar (same for all) or per-worker sequence of
            baseline seconds per iteration.
        slowdown: Heterogeneity injection model.
        n_workers: Worker count (needed when ``base_time`` is scalar).
    """

    def __init__(
        self,
        base_time: Union[float, Sequence[float]] = 0.1,
        slowdown: Optional[SlowdownModel] = None,
        n_workers: Optional[int] = None,
    ) -> None:
        if np.isscalar(base_time):
            if n_workers is None:
                raise ValueError("n_workers required with scalar base_time")
            self.base_times = np.full(n_workers, float(base_time))
        else:
            self.base_times = np.asarray(base_time, dtype=float)
        if np.any(self.base_times <= 0):
            raise ValueError("base compute times must be positive")
        self.slowdown = slowdown or NoSlowdown()
        # Clean homogeneous-time fast path: with no slowdown model,
        # duration() is a constant per worker — precompute the floats
        # so the per-iteration call is one list index.
        self._static = (
            [float(t) for t in self.base_times]
            if type(self.slowdown) is NoSlowdown
            else None
        )

    @property
    def n_workers(self) -> int:
        return len(self.base_times)

    def duration(self, worker: int, iteration: int) -> float:
        """Simulated seconds of gradient computation for this iteration."""
        if self._static is not None:
            return self._static[worker]
        return float(
            self.base_times[worker] * self.slowdown.factor(worker, iteration)
        )

    def describe(self) -> str:
        uniform = np.all(self.base_times == self.base_times[0])
        base = (
            f"{self.base_times[0]:g}s"
            if uniform
            else f"per-worker {self.base_times.tolist()}"
        )
        return f"compute={base}, slowdown={self.slowdown.describe()}"

    def __repr__(self) -> str:
        return f"<ComputeModel {self.describe()}>"


class MarkovSlowdown(SlowdownModel):
    """Markov-modulated bursty stragglers.

    Each worker runs an independent two-state chain.  In the *normal*
    state it enters the *slow* state with probability ``p_enter`` per
    iteration; in the slow state (factor ``factor``) it recovers with
    probability ``p_exit``.  Expected burst length is ``1 / p_exit``
    iterations, so slowdowns are temporally correlated — the regime
    Prague targets and independent coin flips cannot express.

    State at iteration ``k`` is derived by replaying the worker's chain
    from iteration 0 with a dedicated counter-based generator, extending
    a per-worker state vector lazily.  The memo is bounded by the
    largest iteration queried (one byte-ish per iteration), and queries
    are order-independent because the chain is always extended in
    iteration order internally.
    """

    def __init__(
        self,
        streams: RngStreams,
        factor: float = 6.0,
        p_enter: float = 0.05,
        p_exit: float = 0.25,
        start_slow: bool = False,
    ) -> None:
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        for name, p in (("p_enter", p_enter), ("p_exit", p_exit)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self._streams = streams
        self.slow_factor = float(factor)
        self.p_enter = float(p_enter)
        self.p_exit = float(p_exit)
        self.start_slow = bool(start_slow)
        self._states: Dict[int, List[bool]] = {}
        self._rngs: Dict[int, np.random.Generator] = {}

    def _chain(self, worker: int, iteration: int) -> bool:
        states = self._states.setdefault(worker, [self.start_slow])
        if worker not in self._rngs:
            # fresh(): a private, replayable generator per worker,
            # derived the same way as every other stream.
            self._rngs[worker] = self._streams.fresh("markov", worker)
        rng = self._rngs[worker]
        while len(states) <= iteration:
            slow = states[-1]
            draw = rng.random()
            states.append(draw < self.p_enter if not slow else draw >= self.p_exit)
        return states[iteration]

    def factor(self, worker: int, iteration: int) -> float:
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
        return self.slow_factor if self._chain(worker, iteration) else 1.0

    def describe(self) -> str:
        return (
            f"markov({self.slow_factor:g}x, enter={self.p_enter:g}, "
            f"exit={self.p_exit:g})"
        )


class TieredSlowdown(SlowdownModel):
    """Persistent hardware tiers (HetPipe's whimpy/brawny clusters).

    Args:
        tier_factors: Slowdown factor per tier, e.g. ``(1.0, 2.0, 4.0)``.
        tier_of_worker: Explicit worker -> tier assignment; a worker
            beyond the assignment's length is an error (an explicit
            pin must not silently wrap).  When omitted, workers are
            assigned round-robin across tiers (worker ``w`` lands in
            tier ``w % len(tier_factors)``).
    """

    def __init__(
        self,
        tier_factors: Sequence[float],
        tier_of_worker: Sequence[int] = None,
    ) -> None:
        if not tier_factors:
            raise ValueError("need at least one tier")
        for factor in tier_factors:
            if factor < 1.0:
                raise ValueError(f"tier factor must be >= 1, got {factor}")
        self.tier_factors = tuple(float(f) for f in tier_factors)
        self.tier_of_worker = (
            tuple(int(t) for t in tier_of_worker)
            if tier_of_worker is not None
            else None
        )
        if self.tier_of_worker is not None:
            for tier in self.tier_of_worker:
                if not 0 <= tier < len(self.tier_factors):
                    raise ValueError(f"tier {tier} out of range")

    def tier(self, worker: int) -> int:
        if self.tier_of_worker is not None:
            if worker >= len(self.tier_of_worker):
                raise ValueError(
                    f"tier_of_worker assigns {len(self.tier_of_worker)} "
                    f"workers but worker {worker} was queried; pin every "
                    "worker explicitly (or omit for round-robin)"
                )
            return self.tier_of_worker[worker]
        return worker % len(self.tier_factors)

    def factor(self, worker: int, iteration: int) -> float:
        return self.tier_factors[self.tier(worker)]

    def describe(self) -> str:
        inner = ",".join(f"{f:g}x" for f in self.tier_factors)
        return f"tiered[{inner}]"


class DiurnalSlowdown(SlowdownModel):
    """Smooth periodic interference, phase-shifted per worker.

    ``factor(w, k) = 1 + (peak - 1) * (1 + sin(2 pi (k / period +
    w * phase_shift))) / 2`` — a load curve oscillating between 1x and
    ``peak``x with period ``period`` iterations.  Per-worker phase
    shifts stop the whole cluster from breathing in lockstep (which a
    synchronous protocol would hide entirely).
    """

    def __init__(
        self,
        period: float = 32.0,
        peak: float = 3.0,
        phase_shift: float = 1.0 / 7.0,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if peak < 1.0:
            raise ValueError(f"peak must be >= 1, got {peak}")
        self.period = float(period)
        self.peak = float(peak)
        self.phase_shift = float(phase_shift)

    def factor(self, worker: int, iteration: int) -> float:
        phase = iteration / self.period + worker * self.phase_shift
        wave = (1.0 + math.sin(2.0 * math.pi * phase)) / 2.0
        return 1.0 + (self.peak - 1.0) * wave

    def describe(self) -> str:
        return f"diurnal(peak={self.peak:g}x, period={self.period:g})"
