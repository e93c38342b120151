"""Recv/Reduce strategies: standard, backup workers, bounded staleness.

Each strategy is a generator (``yield from`` inside the worker process)
that blocks on update-queue events according to its advance condition
and returns the reduced parameter vector:

* :class:`StandardRecv` — Figure 4: wait for one update of iteration
  ``k`` from *every* in-neighbor (self included), mean-reduce.
* :class:`BackupRecv` — Figure 8: wait for ``|Nin| - n_backup``
  updates of iteration ``k``, scoop up any extras already present,
  mean-reduce whatever arrived.
* :class:`StalenessRecv` — Figure 9 (with the prose semantics of
  the paper's Section 4.4): keep a cache of the freshest update
  per in-neighbor; block only while a neighbor's freshest known update
  is older than ``k - s``; reduce the *newly received* satisfactory
  updates with the iteration-weighted average of Equation (2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.core.reducers import mean_reduce, staleness_weighted_reduce
from repro.core.update import Update

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.worker import HopWorker


class RecvStrategy:
    """Base class; subclasses implement :meth:`recv_reduce`.

    The returned vector is the worker's reusable reduce scratch
    (``worker.reduce_scratch``): valid until that worker's next
    ``recv_reduce``, at which point it is overwritten in place.  The
    worker's loop consumes it before the next receive; anything that
    must outlive the iteration (sent payloads, resync snapshots) takes
    an explicit copy.
    """

    def recv_reduce(self, worker: "HopWorker", iteration: int):
        """Generator: block per the advance condition, return reduced params."""
        raise NotImplementedError
        yield  # pragma: no cover - marks this as a generator template

    def required(self, worker: "HopWorker", iteration: int) -> int:
        """Updates a *blocking* dequeue at ``iteration`` must wait for.

        The membership plane re-evaluates this when the graph is
        rewired mid-wait (a pending request that counted a departed
        in-neighbor is re-counted against the repaired neighborhood);
        statically it is simply the strategy's advance condition.
        """
        return worker.expected_in(iteration)


def standard_reduce(worker: "HopWorker", updates) -> "object":
    """Mean-reduce ``updates`` into the worker's reusable scratch.

    The single reduction contract of standard mode: used by
    :class:`StandardRecv` (and by the hop worker's inlined
    standard-mode fast path, which skips only the generator
    indirection, never the semantics).
    """
    worker.reduce_scratch = reduced = mean_reduce(
        updates, out=worker.reduce_scratch
    )
    return reduced


class StandardRecv(RecvStrategy):
    """Figure 4: need every in-neighbor's update of this iteration.

    ``expected_in`` equals the static in-degree unless the membership
    plane is active, in which case it counts only members whose edge is
    activated for ``iteration``.
    """

    def recv_reduce(self, worker: "HopWorker", iteration: int):
        need = worker.expected_in(iteration)
        updates = yield worker.update_queue.dequeue(need, iteration=iteration)
        return standard_reduce(worker, updates)


class BackupRecv(RecvStrategy):
    """Figure 8: tolerate ``n_backup`` missing in-neighbors."""

    def __init__(self, n_backup: int) -> None:
        if n_backup < 1:
            raise ValueError("n_backup must be >= 1")
        self.n_backup = n_backup

    def required(self, worker: "HopWorker", iteration: int) -> int:
        return max(1, worker.expected_in(iteration) - self.n_backup)

    def recv_reduce(self, worker: "HopWorker", iteration: int):
        need = worker.expected_in(iteration) - self.n_backup
        if need < 1:
            if worker.membership is None:
                raise ValueError(
                    f"worker {worker.wid}: n_backup={self.n_backup} leaves "
                    f"no required updates (in-degree {worker.in_degree})"
                )
            # A rewired neighborhood may shrink below the static
            # validation floor; the self-loop update always exists.
            need = 1
        required = yield worker.update_queue.dequeue(need, iteration=iteration)
        extra = worker.update_queue.dequeue_available(iteration=iteration)
        worker.n_extra_updates += len(extra)
        return standard_reduce(worker, list(required) + extra)


class StalenessRecv(RecvStrategy):
    """Figure 9 with the prose semantics (cached freshest updates).

    State is per-worker: one instance per worker process.
    """

    def __init__(self, staleness: int, reduce_flavor: str = "weighted") -> None:
        if staleness < 1:
            raise ValueError("staleness must be >= 1")
        if reduce_flavor not in ("weighted", "uniform"):
            raise ValueError(f"unknown reduce flavor {reduce_flavor!r}")
        self.staleness = staleness
        self.reduce_flavor = reduce_flavor
        #: Freshest update ever received, per in-neighbor.
        self.cache: Dict[int, Update] = {}

    def freshest_iteration(self, sender: int) -> int:
        """The paper's ``iter_rcv`` (-1 before anything arrives)."""
        update = self.cache.get(sender)
        return update.iteration if update is not None else -1

    def _absorb(self, updates: List[Update]) -> Optional[Update]:
        """Fold drained updates into the cache; return the newest drained."""
        newest: Optional[Update] = None
        for update in updates:
            if newest is None or update.iteration > newest.iteration:
                newest = update
            cached = self.cache.get(update.sender)
            if cached is None or update.iteration > cached.iteration:
                self.cache[update.sender] = update
        return newest

    def recv_reduce(self, worker: "HopWorker", iteration: int):
        floor = iteration - self.staleness
        contributors: List[Update] = []
        elastic = worker.membership is not None
        for sender in worker.in_neighbors:
            if (
                elastic
                and sender != worker.wid
                and worker._in_activation.get(sender, 0) > iteration
            ):
                # Membership plane: this edge's updates start flowing
                # at a later iteration — nothing to wait for yet.
                continue
            drained = worker.update_queue.dequeue_available(sender=sender)
            newest_this_round = self._absorb(drained)
            # Block only while nothing fresh enough was EVER received
            # from this neighbor (prose semantics, Section 4.4).
            while self.freshest_iteration(sender) < floor:
                if sender != worker.wid and sender not in worker.in_neighbors:
                    # The neighbor departed mid-wait (its pending
                    # per-sender dequeue was released by the rewire).
                    break
                worker.n_staleness_blocks += 1
                got = yield worker.update_queue.dequeue(1, sender=sender)
                newest_got = self._absorb(list(got))
                if newest_this_round is None or (
                    newest_got is not None
                    and newest_got.iteration > newest_this_round.iteration
                ):
                    newest_this_round = newest_got
            if (
                newest_this_round is not None
                and newest_this_round.iteration >= floor
            ):
                contributors.append(newest_this_round)
            else:
                worker.n_cache_hits += 1
        if not contributors:
            # Cannot happen in normal operation (the self-loop update of
            # iteration k is always new), but a jump refresh may find
            # nothing new; fall back to cached values within the bound.
            contributors = [
                self.cache[sender]
                for sender in worker.in_neighbors
                if sender in self.cache
                and self.cache[sender].iteration >= floor
            ]
        if not contributors:
            raise RuntimeError(
                f"worker {worker.wid}: no update within staleness bound "
                f"{self.staleness} at iteration {iteration}"
            )
        if self.reduce_flavor == "uniform":
            # The simple average the paper compared Eq. (2) against.
            return standard_reduce(worker, contributors)
        worker.reduce_scratch = reduced = staleness_weighted_reduce(
            contributors, iteration, self.staleness, out=worker.reduce_scratch
        )
        return reduced


def make_recv_strategy(config) -> RecvStrategy:
    """Instantiate the strategy selected by a :class:`HopConfig`."""
    if config.mode == "standard":
        return StandardRecv()
    if config.mode == "backup":
        return BackupRecv(config.n_backup)
    if config.mode == "staleness":
        return StalenessRecv(
            config.staleness, reduce_flavor=config.stale_reduce
        )
    raise ValueError(f"unknown mode {config.mode!r}")
