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

:class:`GapTracker` measures actual gaps during a run so tests and
benchmarks can verify the theory (Table 1 reproduction).
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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


class GapTracker:
    """Measures realized iteration gaps during a run.

    Workers report every iteration transition.  The largest ordered-pair
    gap at a transition into ``k`` is ``k - min Iter``, so a running
    minimum over the current ``Iter`` values answers
    :meth:`max_observed` exactly in O(1) per transition and O(n) memory.
    The per-pair maxima (:meth:`observed_gap`, :meth:`violations`) are
    not maintained on the hot path: transitions go to a compact log that
    :meth:`_fold` replays into an n x n matrix the first time a pair is
    asked for, or when the pending log outgrows ``n * n`` entries.
    """

    #: Sentinel ``Iter`` for non-member workers: so large that
    #: ``iteration - sentinel`` is always deeply negative, freezing
    #: every (live, departed) pair at its last both-live value without
    #: any hot-path masking, and never the running minimum while a live
    #: worker remains.  Far below the int64 edge so the fold's
    #: subtraction can never overflow.
    INACTIVE_SENTINEL = np.iinfo(np.int64).max // 4

    def __init__(self, n_workers: int) -> None:
        self.n = n_workers
        self.iterations: List[int] = [0] * n_workers
        self.transitions = 0
        # How many workers hold each Iter value, and the smallest key.
        self._count: Dict[int, int] = {0: n_workers}
        self._min = 0
        self._max_observed = 0
        # Pending transitions: a worker id reports a transition, its
        # complement ``~worker`` only moves ``Iter`` (activate,
        # deactivate, the first half of record_many).
        self._log_worker = array("i")
        self._log_iteration = array("q")
        # Allocated by the first fold: pair maxima, and Iter as of it.
        self._pairs: Optional[np.ndarray] = None
        self._folded_iterations: Optional[np.ndarray] = None

    def _move(self, worker: int, iteration: int) -> None:
        """Set ``Iter(worker)``, keeping the counts and the minimum."""
        old = self.iterations[worker]
        if old == iteration:
            return
        self.iterations[worker] = iteration
        count = self._count
        count[iteration] = count.get(iteration, 0) + 1
        left = count[old] - 1
        if left:
            count[old] = left
        else:
            del count[old]
        if iteration < self._min:
            self._min = iteration
        elif not left and old == self._min:
            self._min = min(count)

    def _observe(self, iteration: int) -> None:
        gap = iteration - self._min
        if gap > self._max_observed:
            self._max_observed = gap

    def _append(self, code: int, iteration: int) -> None:
        self._log_worker.append(code)
        self._log_iteration.append(iteration)
        if len(self._log_worker) > self.n * self.n:
            self._fold()

    def deactivate(self, worker: int) -> None:
        """Membership leave: freeze every pair involving ``worker``.

        The departed worker stops reporting (its row stays at its
        historical maximum) and the sentinel makes live workers'
        ``Iter(i) - Iter(worker)`` deeply negative, so observed gaps
        only ever cover intervals where both workers were members.
        """
        self.activate(worker, self.INACTIVE_SENTINEL)

    def activate(self, worker: int, iteration: int = 0) -> None:
        """Membership join: resume gap tracking from ``iteration``."""
        self._move(worker, iteration)
        self._append(~worker, iteration)

    def record(self, worker: int, iteration: int) -> None:
        """Report that ``worker`` just entered ``iteration``."""
        self.transitions += 1
        self._move(worker, iteration)
        self._observe(iteration)
        self._append(worker, iteration)

    def record_many(self, iteration: int, workers=None) -> None:
        """Atomically report that several workers entered ``iteration``.

        Used by lockstep protocols (ring all-reduce, BSP) where all
        workers advance at the same instant; sequential ``record``
        calls would register a spurious transient gap of 1.
        """
        workers = range(self.n) if workers is None else list(workers)
        if not workers:
            return
        self.transitions += len(workers)
        for worker in workers:
            self._move(worker, iteration)
            self._append(~worker, iteration)
        self._observe(iteration)
        for worker in workers:
            self._append(worker, iteration)

    def _fold(self) -> np.ndarray:
        """Replay the pending log into the pair matrix and return it."""
        if self._pairs is None:
            self._pairs = np.zeros((self.n, self.n))
            self._folded_iterations = np.zeros(self.n, dtype=np.int64)
        pairs, iterations = self._pairs, self._folded_iterations
        row = np.empty(self.n, dtype=np.int64)
        for code, iteration in zip(self._log_worker, self._log_iteration):
            if code < 0:
                iterations[~code] = iteration
                continue
            iterations[code] = iteration
            # Only row `code` can grow: the (j, code) gaps shrink when
            # `code` advances.
            np.subtract(iteration, iterations, out=row)
            np.maximum(pairs[code], row, out=pairs[code])
        del self._log_worker[:], self._log_iteration[:]
        return pairs

    def observed_gap(self, i: int, j: int) -> float:
        """Max observed ``Iter(i) - Iter(j)`` so far."""
        return float(self._fold()[i, j])

    def max_observed(self) -> float:
        """Largest gap observed between any ordered pair."""
        return float(self._max_observed)

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
            f"<GapTracker n={self.n} transitions={self.transitions} "
            f"max_gap={self.max_observed():g}>"
        )
