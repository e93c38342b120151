"""Calibration probe and the ratio estimator built on it.

This box slows down and speeds up by 1.3-2x over minutes, so a raw wall
time says as much about the minute it was taken in as about the program.
Every timed operation is therefore bracketed by a fixed probe and
reported as ``op_wall / mean(probe_before, probe_after)``: a slowdown of
the whole machine scales both and cancels, a slowdown of the operation
alone does not.  The probe is half numpy-bound and half bytecode-bound,
like the simulator it calibrates.

Nothing here imports ``repro``: the probe must not change when the
program does.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Milliseconds one probe takes at reference speed.  A time metric is
#: ``PROBE_REF_MS * ratio``: "milliseconds on a box where the probe
#: takes 20 ms".
PROBE_REF_MS = 20.0

PROBE_MATMUL_ROUNDS = 60
PROBE_MATRIX = 128
PROBE_LOOP_STEPS = 300_000


def _probe_inputs() -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((PROBE_MATRIX, PROBE_MATRIX))
    a = rng.standard_normal((PROBE_MATRIX, PROBE_MATRIX)) / PROBE_MATRIX
    return x, a


_X, _A = _probe_inputs()


def probe_work() -> Tuple[float, int]:
    """The probe's fixed work; returns checksums so it cannot be elided."""
    x = _X
    for _ in range(PROBE_MATMUL_ROUNDS):
        x = np.tanh(x @ _A)
    acc = 0
    for i in range(PROBE_LOOP_STEPS):
        acc = (acc + i * i) & 0xFFFF
    return float(x.sum()), acc


def probe() -> float:
    """Wall seconds of one probe."""
    start = time.perf_counter()
    probe_work()
    return time.perf_counter() - start


def ratio(op_wall: float, probe_before: float, probe_after: float) -> float:
    """One sample: the op's wall time in units of its bracketing probes."""
    return op_wall / (0.5 * (probe_before + probe_after))


def normalised_ms(ratios_by_op: Sequence[Sequence[float]]) -> float:
    """``PROBE_REF_MS x sum of per-op median ratios``."""
    return PROBE_REF_MS * sum(
        statistics.median(samples) for samples in ratios_by_op
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


class Bracketed:
    """Runs ops bracketed ``probe, op, probe``; neighbours share a probe.

    Collects, per op name, the ratio samples and raw wall times, plus
    every probe time (the ``timing.*`` diagnostics come from those).
    """

    def __init__(self) -> None:
        self.ratios: Dict[str, List[float]] = {}
        self.walls: Dict[str, List[float]] = {}
        self.probes: List[float] = []
        self._last_probe: Optional[float] = None

    def _probe(self) -> float:
        value = probe()
        self.probes.append(value)
        return value

    def break_chain(self) -> None:
        """Forget the shared probe (call after untimed work)."""
        self._last_probe = None

    def time(self, name: str, fn: Callable[[], object]) -> object:
        """Time ``fn()`` once; returns its result."""
        gc.collect()  # outside the timed region; GC itself stays enabled
        before = self._last_probe
        if before is None:
            before = self._probe()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = self._probe()
        self._last_probe = after
        self.ratios.setdefault(name, []).append(ratio(wall, before, after))
        self.walls.setdefault(name, []).append(wall)
        return result

    def timing_diagnostics(self) -> Dict[str, float]:
        p10 = percentile(self.probes, 0.10)
        p90 = percentile(self.probes, 0.90)
        return {
            "probe_ms_p10": 1e3 * p10,
            "probe_ms_p50": 1e3 * statistics.median(self.probes),
            "noise_ratio": p90 / p10,
        }
