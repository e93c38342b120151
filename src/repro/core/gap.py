"""Iteration-gap theory: Theorems 1 & 2 and Table 1 as executable code.

The paper's central analytical results bound how far apart two
workers' iteration counters can drift:

* **Theorem 1** (standard decentralized training):
  ``Iter(i) - Iter(j) <= length(Path_{j->i})``.
* **NOTIFY-ACK** (Section 3.3):
  ``Iter(i) - Iter(j) <= min(len(Path_{j->i}), 2 * len(Path_{i->j}))``.
* **Theorem 2** (token queues):
  ``Iter(i) - Iter(j) <= min(b0 * len(Path_{j->i}),
  max_ig * len(Path_{i->j}))`` where ``b0`` is the forward per-hop
  bound of the underlying setting (1 standard, ``s+1`` staleness,
  ``max_ig * len(Path_{i->j})`` effectively for backup workers).
* **Bounded staleness** (Section 4.4):
  ``Iter(i) - Iter(j) <= (s+1) * length(Path_{j->i})``.
* **Backup workers** (Section 3.4): unbounded without token queues.

:class:`ObservedGaps` reads the gaps a run realized off its ledger, so
tests and benchmarks can verify the theory (Table 1 reproduction).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.topology import Topology


def theorem1_bound(topology: "Topology", i: int, j: int) -> float:
    """Theorem 1 upper bound on ``Iter(i) - Iter(j)``."""
    return topology.path_length(j, i)


def notify_ack_bound(topology: "Topology", i: int, j: int) -> float:
    """NOTIFY-ACK's tighter bound (Section 3.3)."""
    return min(
        topology.path_length(j, i), 2.0 * topology.path_length(i, j)
    )


def staleness_bound(topology: "Topology", i: int, j: int, s: int) -> float:
    """Bounded-staleness bound without token queues (Section 4.4)."""
    if s < 0:
        raise ValueError("staleness must be >= 0")
    return (s + 1.0) * topology.path_length(j, i)


def backup_bound() -> float:
    """Backup workers without token queues: unbounded (Section 3.4)."""
    return math.inf


def token_queue_bound(
    topology: "Topology",
    i: int,
    j: int,
    max_ig: int,
    forward_b0: float = 1.0,
) -> float:
    """Theorem 2 / Table 1 bound with token queues.

    Args:
        topology: Communication graph.
        i, j: The ordered worker pair (bound on ``Iter(i) - Iter(j)``).
        max_ig: Token-queue gap parameter.
        forward_b0: Per-hop forward bound of the base setting — 1 for
            standard, ``s + 1`` for bounded staleness, ``inf`` for
            backup workers (whose only protection is the token side).
    """
    if max_ig < 1:
        raise ValueError("max_ig must be >= 1")
    forward = forward_b0 * topology.path_length(j, i)
    backward = max_ig * topology.path_length(i, j)
    return min(forward, backward)


def gap_bound_matrix(
    topology: "Topology",
    setting: str,
    max_ig: Optional[int] = None,
    staleness: Optional[int] = None,
) -> np.ndarray:
    """Table 1 as a matrix: ``B[i, j]`` bounds ``Iter(i) - Iter(j)``.

    Args:
        topology: Communication graph.
        setting: One of ``"standard"``, ``"notify_ack"``, ``"backup"``,
            ``"staleness"``, ``"standard+tokens"``, ``"backup+tokens"``,
            ``"staleness+tokens"``.
        max_ig: Required for token settings.
        staleness: Required for staleness settings.
    """
    n = topology.n
    B = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            B[i, j] = _pair_bound(topology, i, j, setting, max_ig, staleness)
    return B


def _pair_bound(
    topology: "Topology",
    i: int,
    j: int,
    setting: str,
    max_ig: Optional[int],
    staleness: Optional[int],
) -> float:
    if setting == "standard":
        return theorem1_bound(topology, i, j)
    if setting == "notify_ack":
        return notify_ack_bound(topology, i, j)
    if setting == "backup":
        return backup_bound()
    if setting == "staleness":
        if staleness is None:
            raise ValueError("staleness setting needs the bound s")
        return staleness_bound(topology, i, j, staleness)
    if setting == "standard+tokens":
        if max_ig is None:
            raise ValueError("token settings need max_ig")
        return token_queue_bound(topology, i, j, max_ig, forward_b0=1.0)
    if setting == "staleness+tokens":
        if max_ig is None or staleness is None:
            raise ValueError("staleness+tokens needs max_ig and s")
        return token_queue_bound(
            topology, i, j, max_ig, forward_b0=staleness + 1.0
        )
    if setting == "backup+tokens":
        if max_ig is None:
            raise ValueError("token settings need max_ig")
        # Only the token side bounds backup workers (Table 1's note).
        return max_ig * topology.path_length(i, j)
    raise ValueError(f"unknown setting {setting!r}")


def update_queue_capacity_bound(topology: "Topology", i: int, max_ig: int) -> int:
    """Section 4.2: update queue size is at most ``(1 + max_ig) |Nin(i)|``."""
    return (1 + max_ig) * topology.in_degree(i, include_self=True)


def token_queue_capacity_bound(
    topology: "Topology", i: int, j: int, max_ig: int
) -> float:
    """Table 1's note: ``TokenQ(i->j).size() <= max_ig * (len(Path_{i->j}) + 1)``."""
    return max_ig * (topology.path_length(i, j) + 1.0)


class ObservedGaps:
    """A run's realized iteration gaps, read off its ledger.

    Worker ``w``'s counter ``Iter(w)`` starts at 0 and moves at each
    transition (:meth:`Ledger.transitions
    <repro.sim.trace.Ledger.transitions>`): ``w`` entering an iteration,
    or a membership move (a leave parks the counter at
    :data:`~repro.sim.trace.DEPARTED`, so it never holds the minimum and
    its pairs freeze).  Transitions apply in stamp order, and those that
    share a stamp (a lockstep round) together.  An entry into ``k``
    observes ``k - Iter(j)`` for every ``j``.  :meth:`max_observed` is
    derived at construction, the pair maxima when first asked.
    """

    def __init__(self, n_workers, stamps, workers, iterations, entered):
        self.n = n_workers
        order = np.argsort(stamps, kind="stable")
        stamps = np.asarray(stamps, dtype=np.int64)[order]
        self._workers = np.asarray(workers, dtype=np.intp)[order]
        self._iterations = np.asarray(iterations, dtype=np.int64)[order]
        self._entered = np.asarray(entered, dtype=bool)[order]
        #: Each transition's group, a run of one stamp.
        self._group = np.zeros(stamps.size, dtype=np.intp)
        np.cumsum(stamps[1:] != stamps[:-1], out=self._group[1:])
        self._pairs: Optional[np.ndarray] = None
        self._max = self._sweep()

    def _sweep(self) -> float:
        """The largest ``k - min Iter`` after an entry's group.  While
        every counter only rises (no membership move), the minimum after
        group ``g`` is the highest level every worker has reached by
        ``g``: a table of the group at which the last worker reaches
        each level, searched once per entry."""
        workers, iterations = self._workers, self._iterations
        if not iterations.size:
            return 0.0
        by_worker = np.argsort(workers, kind="stable")
        ks = iterations[by_worker]
        before = np.zeros_like(ks)
        before[1:] = ks[:-1]
        before[np.flatnonzero(np.diff(workers[by_worker])) + 1] = 0
        rises = ks - before
        if not self._entered.all() or (rises < 0).any():
            return float(self._fold().max())
        # Each worker reaches every level in (before, k] at its entry.
        starts = np.repeat(np.cumsum(rises) - rises - before - 1, rises)
        levels = np.arange(starts.size) - starts
        last = np.full(int(ks.max()) + 1, -1, dtype=np.intp)
        np.maximum.at(last, levels, np.repeat(self._group[by_worker], rises))
        # A level some worker never reaches is never the minimum.
        last[np.bincount(levels, minlength=last.size) < self.n] = ks.size
        floor = np.searchsorted(last[1:], self._group, side="right")
        return float(max(0, int((iterations - floor).max())))

    def _fold(self) -> np.ndarray:
        """The pair maxima: ``[i, j]`` is the largest ``k - Iter(j)``
        seen as ``i`` entered ``k``."""
        if self._pairs is not None:
            return self._pairs
        pairs = np.zeros((self.n, self.n))
        current = np.zeros(self.n, dtype=np.int64)
        row = np.empty(self.n, dtype=np.int64)
        columns = (self._workers, self._iterations, self._entered)
        bounds = np.flatnonzero(np.diff(self._group, prepend=-1, append=-2))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            workers, iterations, entered = (c[lo:hi] for c in columns)
            current[workers] = iterations
            for worker, iteration in zip(
                workers[entered].tolist(), iterations[entered].tolist()
            ):
                # Only row ``worker`` can grow: the (j, worker) gaps
                # shrink when ``worker`` advances.
                np.subtract(iteration, current, out=row)
                np.maximum(pairs[worker], row, out=pairs[worker])
        self._pairs = pairs
        return pairs

    def observed_gap(self, i: int, j: int) -> float:
        """Max observed ``Iter(i) - Iter(j)``."""
        return float(self._fold()[i, j])

    def max_observed(self) -> float:
        """Largest gap observed between any ordered pair."""
        return self._max

    def violations(self, bounds: np.ndarray) -> Dict[Tuple[int, int], float]:
        """Pairs whose observed gap exceeded the theoretical bound."""
        pairs, bounds = self._fold(), np.asarray(bounds)
        over = pairs > bounds + 1e-9
        np.fill_diagonal(over, False)
        return {
            (int(i), int(j)): float(pairs[i, j] - bounds[i, j])
            for i, j in zip(*np.nonzero(over))
        }

    def __repr__(self) -> str:
        return (
            f"<ObservedGaps n={self.n} transitions={self._workers.size} "
            f"max_gap={self.max_observed():g}>"
        )
