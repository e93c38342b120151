"""Measurement collection for simulation runs.

:class:`StatAccumulator` keeps streaming summary statistics without
storing samples; :class:`Ledger` is a run's one time record: where each
worker's simulated time went, the loss of each of its iterations, and
the crash lifecycle.
"""

from __future__ import annotations

import math
from array import array
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


#: The crash lifecycle's event kinds, in causal order.
FAULT_KINDS = ("crashed", "resynced", "restarted")


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
COLUMNS = ("worker", "iteration", "start", "end", "loss") + tuple(
    f"{phase}_{side}" for phase in PHASES for side in ("from", "to")
)
#: A row's loss column.
LOSS = COLUMNS.index("loss")
#: A phase the iteration never entered.
SKIPPED = (math.nan, math.nan)
#: A row's slots in the ledger's buffer: its columns, then its stamp.
_WIDTH = len(COLUMNS) + 1
#: A departed worker's iteration counter: far above any real one, and far
#: enough below the int64 edge that ``k - DEPARTED`` cannot overflow.
DEPARTED = np.iinfo(np.int64).max // 4


class Ledger:
    """One run's time record: a row per worker-iteration, of its
    boundary timestamps and its loss (:data:`COLUMNS`), appended as it
    ends, so a worker's rows are in its iteration order; the crash
    lifecycle (:meth:`fault`); and the order of every change of a
    worker's iteration counter (:meth:`transitions`).  A phase the
    iteration never entered is :data:`SKIPPED`; docs/ARCHITECTURE.md,
    "Worker-time ledger", has what each phase is per protocol.

    Args:
        loss_at: The column a row's loss is timed at in
            :meth:`loss_series`, a property of the protocol
            (:attr:`~repro.protocols.base.ProtocolCluster.loss_at`).
    """

    __slots__ = ("_rows", "_faults", "_off_rows", "loss_at", "order")

    def __init__(self, loss_at: str = "end") -> None:
        self._rows = array("d")
        self._faults: List[Tuple[float, int, int, int]] = []
        self._off_rows: List[Tuple[int, int, int, bool]] = []
        self.loss_at = loss_at
        #: The run's transition stamps, drawn with ``next`` where a worker
        #: enters an iteration (once for a lockstep round's members).
        self.order = count()

    def record(
        self, wid, k, start, end, loss, compute=SKIPPED, recv=SKIPPED,
        gate=SKIPPED, wire=SKIPPED, jump=SKIPPED, order=None,
    ) -> None:
        """The one hook every iteration body calls as it ends, with the
        ``order`` stamp it drew as it began (drawn here if not given).
        A replaying run's ``loss`` is NaN until :meth:`fill_losses`."""
        if order is None:
            order = next(self.order)
        self._rows.extend(
            (wid, k, start, end, loss, *compute, *recv, *gate, *wire, *jump,
             order)
        )

    def move(self, wid: int, k: int) -> None:
        """A membership transition: ``wid``'s counter is set to ``k``
        (:data:`DEPARTED` for a leave) without an iteration beginning."""
        self._off_rows.append((next(self.order), wid, k, False))

    def enter(self, wid: int, k: int, order: int) -> None:
        """Iteration ``k``, begun at stamp ``order``, that no row ends."""
        self._off_rows.append((order, wid, k, True))

    def transitions(self):
        """Every change of a worker's iteration counter, unsorted, as
        ``(stamps, workers, iterations, entered)``: each row's entry,
        each :meth:`enter` and each :meth:`move` (not entered)."""
        rows = np.frombuffer(self._rows).reshape(-1, _WIDTH)[:, [-1, 0, 1, 1]]
        rows[:, 3] = True
        off_rows = np.array(self._off_rows, dtype=np.int64).reshape(-1, 4)
        columns = np.vstack((rows.astype(np.int64), off_rows)).T
        return (*columns[:3], columns[3] > 0)

    def fill_losses(self, losses: np.ndarray) -> None:
        """A replaying run's loss column: ``losses[wid, k]`` for each
        row's ``(worker, iteration)``."""
        table = self.table()
        rows = table[:, :2].astype(np.intp)
        table[:, LOSS] = losses[rows[:, 0], rows[:, 1]]

    def fault(self, kind: str, wid: int, time: float, k: int) -> None:
        """One crash-lifecycle event, a kind of :data:`FAULT_KINDS`."""
        self._faults.append((time, wid, FAULT_KINDS.index(kind), k))

    def fault_events(self) -> List[dict]:
        """The crash lifecycle by time, then worker, then causal order
        (a restart completes *after* the re-sync it did)."""
        return [
            {"kind": FAULT_KINDS[kind], "worker": wid, "time": float(time),
             "iteration": k}
            for time, wid, kind, k in sorted(self._faults)
        ]

    def __len__(self) -> int:
        return len(self._rows) // _WIDTH

    def table(self) -> np.ndarray:
        """Every row, in append order: ``(rows, len(COLUMNS))``, a view
        that leaves each row's stamp out."""
        return np.frombuffer(self._rows).reshape(-1, _WIDTH)[:, :-1]

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

    def loss_series(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every row's ``(time, loss)``, time-sorted, a row's time being
        its :attr:`loss_at` column; equal times keep worker order, then
        each worker's row order.  A non-finite loss is kept."""
        table = self.table()
        table = table[np.argsort(table[:, 0], kind="stable")]
        times = table[:, COLUMNS.index(self.loss_at)]
        order = np.argsort(times, kind="stable")
        return times[order], table[order, LOSS]

    def worker_stats(
        self, completed: Sequence[int], gate_key: str, extras=None,
        loss_mean: bool = False,
    ) -> List[dict]:
        """Every protocol's ``worker_stats``: Welford means over each
        worker's rows in iteration order, of the rows that entered the
        phase (``end - start``, ``recv``, ``gate``) and, with
        ``loss_mean``, of every row's loss.  ``extras[wid]``, a
        protocol's own keys, go before the gate mean."""
        n = len(completed)
        table = self.table()
        times = table[:, [3, 8, 10]] - table[:, [2, 7, 9]]
        values = self.grid(n, np.column_stack((times, table[:, LOSS])))
        values = values.transpose(2, 0, 1).reshape(4 * n, -1)
        entered = ~np.isnan(values)
        # Every row has a loss: a NaN one is a value, not a skip.
        entered[3 * n :] = entered[:n]
        stats = StatAccumulator.per_row(values, entered=entered)
        duration, recv, gate, loss = (
            stats[i * n : (i + 1) * n] for i in range(4)
        )
        return [
            {
                "wid": wid,
                "iterations_completed": completed[wid],
                "iteration_duration_mean": duration[wid].mean,
                "iteration_duration_max": duration[wid].max,
                "recv_wait_mean": recv[wid].mean,
                **({"loss_mean": loss[wid].mean} if loss_mean else {}),
                **(extras[wid] if extras else {}),
                gate_key: gate[wid].mean,
            }
            for wid in range(n)
        ]
