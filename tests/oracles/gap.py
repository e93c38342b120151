"""The per-iteration gap tracker the ledger replaced, kept as the oracle
for :class:`repro.core.gap.ObservedGaps`.

Every protocol used to report each transition as it happened:
``record(wid, k)`` as a worker entered iteration ``k``,
``record_many(k, workers)`` for a lockstep round, ``activate`` /
``deactivate`` for a membership join or leave.  A run now reads the same
answers off its ledger (``tests/core/test_gap_oracle.py``);
:func:`replay_run` feeds a finished run's transitions, in stamp order,
to this tracker.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np


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
        # _move, _observe and _append, inline: this runs once per
        # worker-iteration.
        self.transitions += 1
        iterations = self.iterations
        old = iterations[worker]
        if old != iteration:
            iterations[worker] = iteration
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
        gap = iteration - self._min
        if gap > self._max_observed:
            self._max_observed = gap
        log_worker = self._log_worker
        log_worker.append(worker)
        self._log_iteration.append(iteration)
        if len(log_worker) > self.n * self.n:
            self._fold()

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


def replay(n_workers, stamps, workers, iterations, entered) -> GapTracker:
    """A tracker fed a run's transitions (as
    :meth:`repro.sim.trace.Ledger.transitions` lists them) in stamp
    order, through the calls the protocols used to make: a transition of
    its own is ``record``, or ``activate`` / ``deactivate`` for a
    membership move; the entries of one shared stamp (a lockstep round,
    all into one iteration) are one ``record_many``."""
    from repro.sim.trace import DEPARTED

    tracker = GapTracker(n_workers)
    order = np.argsort(stamps, kind="stable")
    rows = zip(
        *(np.asarray(column)[order].tolist()
          for column in (stamps, workers, iterations, entered))
    )
    groups: List[list] = []
    for stamp, worker, iteration, observes in rows:
        if groups and groups[-1][0][0] == stamp:
            groups[-1].append((stamp, worker, iteration, observes))
        else:
            groups.append([(stamp, worker, iteration, observes)])
    for group in groups:
        if len(group) > 1:
            assert all(observes for *_, observes in group)
            assert len({iteration for _, _, iteration, _ in group}) == 1
            tracker.record_many(group[0][2], [w for _, w, _, _ in group])
            continue
        _, worker, iteration, observes = group[0]
        if observes:
            tracker.record(worker, iteration)
        elif iteration == DEPARTED:
            tracker.deactivate(worker)
        else:
            tracker.activate(worker, iteration)
    return tracker
