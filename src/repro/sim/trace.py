"""Measurement collection for simulation runs.

:class:`Tracer` records named time-series during a run (loss curves,
the crash lifecycle, ...); :class:`StatAccumulator` keeps streaming
summary statistics without storing samples; :class:`Ledger` records
where each worker's simulated time went.

Hot-path producers should grab a *channel* once
(``log = tracer.channel(f"loss/{wid}")``) and call it per event: the
key string is formatted and hashed exactly once, and when the channel
is disabled (a diagnostic series left off a ``Tracer``'s allowlist)
the returned callable is a shared no-op, so unconsumed series cost
nothing per event.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


def _noop_log(time: float, value: object = None) -> None:
    """Shared sink for disabled tracer channels."""


#: The crash lifecycle's key prefixes, in causal order.
FAULT_KINDS = ("crashed", "resynced", "restarted")
#: Key prefixes (the part before the first ``/``) a run's results are
#: read from: loss curves and the crash lifecycle.  Always recorded.
RESULT_PREFIXES = frozenset(("loss", *FAULT_KINDS))


class Tracer:
    """Records ``(time, value)`` samples under string keys.

    Args:
        channels: Optional allowlist of diagnostic key *prefixes* (the
            part before the first ``/``).  ``None`` records everything;
            otherwise only the :data:`RESULT_PREFIXES` and the listed
            prefixes are stored, and every other :meth:`log` /
            :meth:`channel` becomes a no-op.
    """

    __slots__ = ("_records", "_channels")

    def __init__(self, channels: Optional[Sequence[str]] = None) -> None:
        self._records: Dict[str, List[Tuple[float, object]]] = {}
        self._channels = (
            None if channels is None else RESULT_PREFIXES.union(channels)
        )

    def enabled(self, key: str) -> bool:
        """Whether samples logged under ``key`` are stored."""
        if self._channels is None:
            return True
        return key.partition("/")[0] in self._channels

    def channel(self, key: str) -> Callable[..., None]:
        """A fast-path appender bound to one series.

        Returns ``log(time, value=None)``; a shared no-op when the
        series is disabled, so callers can log unconditionally.
        """
        if not self.enabled(key):
            return _noop_log
        append = self._records.setdefault(key, []).append

        def log(time: float, value: object = None) -> None:
            append((time, value))

        return log

    def log(self, key: str, time: float, value: object = None) -> None:
        """Append one sample to the series ``key``."""
        if not self.enabled(key):
            return
        records = self._records.get(key)
        if records is None:
            records = self._records[key] = []
        records.append((time, value))

    def extend(self, key: str, samples: Iterable[Tuple[float, object]]) -> None:
        """Append many ``(time, value)`` samples to the series ``key``."""
        if self.enabled(key):
            self._records.setdefault(key, []).extend(samples)

    def keys(self) -> List[str]:
        return sorted(self._records.keys())

    def raw(self, key: str) -> List[Tuple[float, object]]:
        """All samples logged for ``key`` (empty list if none)."""
        return list(self._records.get(key, []))

    def count(self, key: str) -> int:
        return len(self._records.get(key, []))

    def last(self, key: str) -> Optional[Tuple[float, object]]:
        records = self._records.get(key)
        return records[-1] if records else None

    def series(self, key: str) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` arrays for a numeric series."""
        records = self._records.get(key, [])
        if not records:
            return np.array([]), np.array([])
        times = np.array([t for t, _ in records], dtype=float)
        values = np.array([v for _, v in records], dtype=float)
        return times, values

    def merge(self, other: "Tracer") -> None:
        """Fold another tracer's records into this one (stable order)."""
        for key, records in other._records.items():
            merged = self._records.setdefault(key, [])
            merged.extend(records)
            merged.sort(key=lambda tv: tv[0])

    def __repr__(self) -> str:
        return f"<Tracer keys={len(self._records)}>"


class StatAccumulator:
    """Streaming count/mean/min/max/variance (Welford) accumulator."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add_repeated(self, value: float, times: int) -> None:
        """``times`` calls of :meth:`add` with ``value``, bit for bit.

        Once ``value`` is the mean (finite and non-zero), a further
        :meth:`add` of it has ``delta == +0.0`` and leaves ``mean`` and
        ``_m2`` bit for bit where they are (``_m2`` is never ``-0.0``),
        so the rest are one count and one ``min`` / ``max`` check.
        """
        while times > 0:
            if (
                value == self.mean
                and value != 0.0
                and math.isfinite(value)
            ):
                self.count += times
                if value < self.min:
                    self.min = value
                if value > self.max:
                    self.max = value
                return
            self.add(value)
            times -= 1

    @classmethod
    def per_row(
        cls, values: np.ndarray, entered: Optional[np.ndarray] = None
    ) -> List["StatAccumulator"]:
        """One accumulator per row of a 2-D array, fed that row's values
        in order: bit for bit what :meth:`add` leaves, with each step's
        arithmetic taken down a column for all rows at once (the same
        float64 ops, in the same order, per row).  ``entered``, a mask
        of ``values``' shape, skips the values it marks False."""
        rows = values.shape[0]
        if entered is None:
            entered = np.ones(values.shape, dtype=bool)
        seen = np.zeros(rows)
        mean = np.zeros(rows)
        m2 = np.zeros(rows)
        low = np.full(rows, math.inf)
        high = np.full(rows, -math.inf)
        # Python float arithmetic overflows to inf and nan silently.
        with np.errstate(all="ignore"):
            for value, live in zip(values.T, entered.T):
                seen = seen + live
                delta = value - mean
                mean = np.where(live, mean + delta / seen, mean)
                m2 = np.where(live, m2 + delta * (value - mean), m2)
                low = np.where(live & (value < low), value, low)
                high = np.where(live & (value > high), value, high)
        accumulators = []
        states = zip(
            seen.tolist(), mean.tolist(), m2.tolist(), low.tolist(), high.tolist()
        )
        for count, mean_, m2_, low_, high_ in states:
            accumulator = cls()
            accumulator.count = int(count)
            accumulator.mean, accumulator._m2 = mean_, m2_
            accumulator.min, accumulator.max = low_, high_
            accumulators.append(accumulator)
        return accumulators

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        return self.mean * self.count

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
        }

    def __repr__(self) -> str:
        if not self.count:
            return "<StatAccumulator empty>"
        return (
            f"<StatAccumulator n={self.count} mean={self.mean:.4g} "
            f"min={self.min:.4g} max={self.max:.4g}>"
        )


#: A ledger row's phases, in its layout's order.
PHASES = ("compute", "recv", "gate", "wire", "jump")
#: The ledger's row layout.
COLUMNS = ("worker", "iteration", "start", "end") + tuple(
    f"{phase}_{side}" for phase in PHASES for side in ("from", "to")
)
#: A phase the iteration never entered.
SKIPPED = (math.nan, math.nan)


class Ledger:
    """One run's worker-time ledger: a row per worker-iteration, of its
    boundary timestamps (:data:`COLUMNS`), appended as it ends, so a
    worker's rows are in its iteration order.  A phase the iteration
    never entered is :data:`SKIPPED`; docs/ARCHITECTURE.md,
    "Worker-time ledger", has what each phase is per protocol."""

    __slots__ = ("_rows",)

    def __init__(self) -> None:
        self._rows = array("d")

    def record(
        self, wid, k, start, end, compute=SKIPPED, recv=SKIPPED,
        gate=SKIPPED, wire=SKIPPED, jump=SKIPPED,
    ) -> None:
        """The one hook every iteration body calls as it ends."""
        self._rows.extend(
            (wid, k, start, end, *compute, *recv, *gate, *wire, *jump)
        )

    def __len__(self) -> int:
        return len(self._rows) // len(COLUMNS)

    def table(self) -> np.ndarray:
        """Every row, in append order: ``(rows, len(COLUMNS))``."""
        return np.frombuffer(self._rows).reshape(-1, len(COLUMNS))

    def grid(self, n_workers: int, values: Optional[np.ndarray] = None):
        """``values`` (one per row; default the table) by worker:
        ``(n_workers, most rows, ...)``, nan-padded."""
        table = self.table()
        values = table if values is None else values
        workers = table[:, 0].astype(np.intp)
        order = np.argsort(workers, kind="stable")
        workers = workers[order]
        counts = np.bincount(workers, minlength=n_workers)
        slot = np.arange(len(workers)) - np.repeat(np.cumsum(counts) - counts, counts)
        shape = (n_workers, int(counts.max(initial=0)), *values.shape[1:])
        out = np.full(shape, np.nan)
        out[workers, slot] = values[order]
        return out

    def column(self, name: str, n_workers: int) -> np.ndarray:
        return self.grid(n_workers, self.table()[:, COLUMNS.index(name)])

    def worker_stats(
        self, completed: Sequence[int], gate_key: str, extras=None
    ) -> List[dict]:
        """Every protocol's ``worker_stats``: Welford means over each
        worker's rows in iteration order, of the rows that entered the
        phase (``end - start``, ``recv``, ``gate``).  ``extras[wid]``, a
        protocol's own keys, go before the gate mean."""
        n = len(completed)
        table = self.table()
        times = table[:, [3, 7, 9]] - table[:, [2, 6, 8]]
        values = self.grid(n, times).transpose(2, 0, 1).reshape(3 * n, -1)
        stats = StatAccumulator.per_row(values, entered=~np.isnan(values))
        duration, recv, gate = stats[:n], stats[n : 2 * n], stats[2 * n :]
        return [
            {
                "wid": wid,
                "iterations_completed": completed[wid],
                "iteration_duration_mean": duration[wid].mean,
                "iteration_duration_max": duration[wid].max,
                "recv_wait_mean": recv[wid].mean,
                **(extras[wid] if extras else {}),
                gate_key: gate[wid].mean,
            }
            for wid in range(n)
        ]
