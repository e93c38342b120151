"""The numeric planes behind the control loops that replay, the one
dependency record they write, and the one level loop that evaluates it.

Control — queues, tokens, timeouts, the gap — never reads a parameter
(``tests/core/test_value_independence.py``), so a control loop calls
its arithmetic through a *plane* and never looks at what comes back:

* :class:`EagerPlane` does the math in :meth:`HopWorker.run` (hop and
  NOTIFY-ACK), one worker and one vector at a time: ``set_params`` + a
  compute ticket before the compute timeout, the SGD step after it,
  the reduce into the worker's scratch, the apply.  The parameter
  server's eager plane is in :mod:`repro.baselines.ps`.  Every run
  that :func:`replayable` turns down takes one.
* :class:`RecordPlane` does none of it, for hop, NOTIFY-ACK and the
  parameter server alike.  Sends carry no parameters (an
  :class:`~repro.core.update.Update` names ``(sender, iteration)``),
  compute submits nothing, and each reduce or server fold appends one
  combine to the run's :class:`Record`.

After ``env.run()`` :func:`replay` places every evaluation (a
worker-iteration's gradient) and every combine on a level and hands
each level to the protocol's *emitter*, whose two methods do its
arithmetic as a few numpy calls over all rows: :class:`HopEmitter`
here, the server's in :mod:`repro.baselines.ps`.

docs/ARCHITECTURE.md, "Replay", has the record, the level rule, the
argument that replay is bit for bit the eager arithmetic, and why each
eager case is eager.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from repro.core.reducers import (
    mean_reduce,
    mean_reduce_rows,
    staleness_weighted_reduce,
    staleness_weights,
    weighted_reduce_rows,
)
from repro.ml.data import Horizons
from repro.ml.optim import SGD

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.worker import HopWorker


class EagerPlane:
    """The arithmetic in the loop, on the worker's own model replica,
    optimizer and reusable reduce scratch."""

    __slots__ = ("worker", "reduce_scratch", "loss")

    def __init__(self, worker: "HopWorker") -> None:
        self.worker = worker
        #: Reusable reduce accumulator: the vector :meth:`mean` /
        #: :meth:`weighted` return is valid until this worker's next
        #: reduce overwrites it in place.
        self.reduce_scratch = None
        #: The loss of the iteration in flight (its ledger row's).
        self.loss = None

    def initial(self) -> np.ndarray:
        """The worker's parameters at iteration 0."""
        return self.worker.model.get_params()

    def compute(self, x: np.ndarray):
        """Before the compute timeout: fix the gradient's inputs."""
        worker = self.worker
        model = worker.model
        model.set_params(x)
        return worker.compute.submit(model, worker.batcher)

    def step(self, ticket, x: np.ndarray) -> np.ndarray:
        """After it: the optimizer's delta."""
        self.loss, grad = ticket.result()
        return self.worker.optimizer.step(x, grad)

    def mean(self, updates, k: int) -> np.ndarray:
        """Figures 4 / 8: the plain average, into the scratch."""
        self.reduce_scratch = reduced = mean_reduce(
            updates, out=self.reduce_scratch
        )
        return reduced

    def weighted(self, updates, k: int, staleness: int) -> np.ndarray:
        """Equation (2)'s iteration-weighted average, into the scratch."""
        self.reduce_scratch = reduced = staleness_weighted_reduce(
            updates, k, staleness, out=self.reduce_scratch
        )
        return reduced

    @staticmethod
    def apply(reduced: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """The parallel graph's apply: ``reduced + delta``."""
        if reduced.dtype == delta.dtype:
            # In place on the reduce scratch; bitwise equal to the
            # out-of-place add.
            np.add(reduced, delta, out=reduced)
            return reduced
        # Dtype promotion (a float32 iteration-0 reduce plus a float64
        # delta) allocates, exactly as the out-of-place add did.
        return reduced + delta

    @staticmethod
    def applied(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """The serial graph's apply before Send: ``x + delta``."""
        return x + delta


class Record:
    """One run's dependency record, what :func:`replay` evaluates.

    An *evaluation* is one worker-iteration's gradient, named by its gid
    ``wid * max_iter + k``.  A *combine* reads evaluations and makes a
    parameter vector: a hop reduce and apply, or a server fold.
    Combines are appended in the order the run performs them; combine
    ``c`` reads ``sizes[c]`` evaluations, whose gids follow in
    ``inputs``.  ``reads[gid]`` is the combine whose output evaluation
    ``gid`` reads (-1: the initial parameters).

    ``chained``: every combine also reads the one before it (the
    server's folds are one chain).  A hop reduce lists its own
    evaluation first, which orders each worker's reduces.
    ``lockstep``: every combine reads the evaluations of one iteration
    ``k`` and makes iteration ``k + 1``'s parameters (hop's standard
    and backup modes), so it sits at level ``k + 1`` and each
    evaluation of iteration ``k`` at level ``k``.
    """

    __slots__ = ("max_iter", "sizes", "inputs", "reads", "chained",
                 "lockstep")

    def __init__(
        self,
        n_workers: int,
        max_iter: int,
        chained: bool = False,
        lockstep: bool = False,
    ) -> None:
        self.max_iter = max_iter
        self.sizes = array("i")
        self.inputs = array("i")
        self.reads = array("i", [-1]) * (n_workers * max_iter)
        self.chained = chained
        self.lockstep = lockstep

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(offsets, inputs)``: combine ``c`` reads
        ``inputs[offsets[c]:offsets[c + 1]]``."""
        sizes = np.frombuffer(self.sizes, dtype=np.intc)
        offsets = np.zeros(sizes.size + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        return offsets, np.frombuffer(self.inputs, dtype=np.intc)

    def levels(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each combine's level and each evaluation's.

        An evaluation sits at the level of the combine it reads (the
        initial parameters are level 0).  A combine sits one above the
        highest evaluation it reads, and never below the combine before
        it when ``chained``.

        A chain's levels never fall: a combine sits one above the latest
        combine read by any up to it, one ``searchsorted`` per level.
        """
        offsets, inputs = self.columns()
        max_iter = self.max_iter
        if self.lockstep:
            return (
                inputs[offsets[:-1]] % max_iter + 1,
                np.arange(len(self.reads)) % max_iter,
            )
        reads = np.frombuffer(self.reads, dtype=np.intc)
        count = offsets.size - 1
        # ``at[-1]`` is the initial parameters' level.
        at = np.zeros(offsets.size, dtype=np.int64)
        if self.chained:
            # The latest combine read by any of combines 0..c (every
            # fold applies at least one gradient).
            latest = np.maximum.accumulate(
                np.maximum.reduceat(reads[inputs], offsets[:-1])
            )
            ends = [0]
            while ends[-1] < count:
                end = int(np.searchsorted(latest, ends[-1]))
                if end == ends[-1]:
                    raise ValueError("a combine reads a later combine")
                ends.append(end)
            at[:count] = np.repeat(np.arange(1, len(ends)), np.diff(ends))
            return at[:-1], at[reads]
        sources = reads[inputs].tolist()
        levels = [0] * offsets.size
        bounds = offsets.tolist()
        for c, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            level = 0
            for source in sources[lo:hi]:
                if levels[source] > level:
                    level = levels[source]
            levels[c] = level + 1
        at[:] = levels
        return at[:-1], at[reads]


class RecordPlane:
    """Control only: the plane of every loop that writes a
    :class:`Record`.  It has only the calls that record: a hop loop
    makes none of the rest of the math (its parameters are ``None``
    while it simulates), and what a call returns is never read.

    A hop worker (its own plane, ``wid``) appends one combine per
    reduce: its own evaluation, then the updates that entered the
    reduce, in arrival order.  The parameter server's loops share one:
    a gradient is its gid, which travels through the inbox and the BSP
    quorum in place of the vector; a pull records the fold it reads
    (the one that made the version it pulled), and each fold appends
    one combine of the gids it applied, in order (one for async and
    ssp, the BSP quorum in ``pending`` order).  A gid in no fold is a
    gradient BSP dropped as stale: it is still evaluated, for its loss
    and its batch draw.
    """

    __slots__ = ("record", "base")

    def __init__(self, record: Record, wid: int = 0) -> None:
        self.record = record
        #: This worker's iteration-0 gid.
        self.base = wid * record.max_iter

    #: Every ledger row's loss while the simulation runs: the replay
    #: fills the column (:meth:`~repro.sim.trace.Ledger.fill_losses`).
    loss = math.nan

    def mean(self, updates, k: int, staleness: int = 0) -> None:
        record = self.record
        max_iter = record.max_iter
        own = self.base + k
        sizes = record.sizes
        sizes.append(len(updates) + 1)
        record.inputs.extend(
            [own, *[u.sender * max_iter + u.iteration for u in updates]]
        )
        if k + 1 < max_iter:
            record.reads[own + 1] = len(sizes) - 1
        return None

    # The flavour is the run's; the emitter reads it off the config.
    weighted = mean

    def pull(self, server, wid: int, k: int, model, batcher) -> int:
        record = self.record
        gid = wid * record.max_iter + k
        record.reads[gid] = server.version - 1
        return gid

    @staticmethod
    def gradient(gid: int):
        return math.nan, gid

    def fold(self, params, gid: int):
        record = self.record
        record.sizes.append(1)
        record.inputs.append(gid)
        return params

    def fold_mean(self, params, gids: list):
        record = self.record
        record.sizes.append(len(gids))
        record.inputs.extend(gids)
        return params


def replayable(cluster, model, config=None) -> bool:
    """Whether a run records its dependencies and replays the math: the
    one eligibility predicate of hop, NOTIFY-ACK and the parameter
    server.

    Every condition is a property of the spec: no churn plan (a leave
    or join moves state mid-run: hop's re-sync copies a peer's
    ``current_params``, the PS's sharded failover scrubs inbox
    entries); no compression (error feedback is stateful per worker and
    stream); plain :class:`SGD`; and the run's model offers a stacked
    kernel, which evaluates a level's rows as one block (the CNN has
    none, so it stays eager).  It is decided from the run's first
    model, before any replica exists: a replaying run builds no
    replicas at all.  A run of
    :class:`~repro.core.worker.HopWorker` loops passes ``config``, the
    one the workers run (NOTIFY-ACK's ignores the spec's), and also
    needs no crash events (re-sync copies a peer's ``current_params``)
    and no skip policy (a jump injects a local update and refreshes at
    ``target - 1``).
    """
    return (
        cluster.churn is None
        and cluster.compression is None
        and type(cluster.optimizer_proto) is SGD
        and model.stacked_kernel is not None
        and (
            config is None
            or (not cluster.crash_events and config.skip is None)
        )
    )


def replay(record: Record, emitter) -> None:
    """Evaluate ``record`` level by level through ``emitter``.

    Per level, ``emitter.combine(cs)`` runs the level's combines (in
    record order), then ``emitter.evaluate(gids)`` the level's
    evaluations (in gid order) as one block; a level with none of
    either skips the call.
    """
    combine_at, evaluation_at = record.levels()
    combines = np.argsort(combine_at, kind="stable")
    evaluations = np.argsort(evaluation_at, kind="stable")
    depth = int(np.max(combine_at, initial=0)) + 1
    combine_ends = np.bincount(combine_at, minlength=depth).cumsum().tolist()
    evaluation_ends = (
        np.bincount(evaluation_at, minlength=depth).cumsum().tolist()
    )
    c = e = 0
    for c_end, e_end in zip(combine_ends, evaluation_ends):
        if c_end > c:
            emitter.combine(combines[c:c_end])
        if e_end > e:
            emitter.evaluate(evaluations[e:e_end])
        c, e = c_end, e_end


class HopEmitter:
    """Hop and NOTIFY-ACK's arithmetic of one level, over all workers at
    once: row ``wid`` of :attr:`x` is worker ``wid``'s parameters, all
    starting from ``initial``, and each worker draws its batches in
    ``k`` order, gathered by ``(wid, k)`` from a
    :class:`~repro.ml.data.Horizons`.  After :func:`replay`, :attr:`x`
    holds the final parameters and :attr:`losses` each worker's losses
    by iteration.
    """

    def __init__(
        self, record: Record, workers, pool, optimizer: SGD, config, initial
    ) -> None:
        n = len(workers)
        self.max_iter = record.max_iter
        self.pool, self.optimizer = pool, optimizer
        self.horizons = Horizons([w.batcher for w in workers], self.max_iter)
        self.parallel = config.computation_graph == "parallel"
        staleness = config.mode == "staleness"
        self.weighted = staleness and config.stale_reduce == "weighted"
        self.window = config.staleness if staleness else 0
        self.offsets, self.inputs = record.columns()
        self.x = x = np.tile(initial, (n, 1))
        self.velocity = np.zeros_like(x) if optimizer.momentum > 0.0 else None
        #: What each worker sent at each iteration, by iteration; a level
        #: array lives while some reduce may still read it.
        self.sent: Dict[int, np.ndarray] = {}
        self.progress = np.zeros(n, dtype=np.intp)  # reduces done, per worker
        self.losses = np.empty((n, self.max_iter))

    def evaluate(self, gids: np.ndarray) -> None:
        """Gradients, SGD steps and what each row sends."""
        rows, ks = np.divmod(gids, self.max_iter)
        x, velocity = self.x, self.velocity
        # A worker evaluates at most once a level, so a level of n rows
        # is every worker in wid order: its blocks are x and velocity.
        whole = len(rows) == len(x)
        params = x if whole else x[rows]
        moment = velocity if whole or velocity is None else velocity[rows]
        losses, grads = self.pool.evaluate_rows(
            rows, ks, params, self.horizons
        )
        delta = self.optimizer.step_rows(params, grads, moment)
        if moment is not velocity:
            velocity[rows] = moment
        self.losses[rows, ks] = losses
        if not self.parallel:
            out = params + delta
        elif whole:
            # The delta waits in x for each row's reduce, the next to
            # read it; what the rows send is the block they stepped.
            self.x, out = delta, x
        else:
            x[rows] = delta
            out = params
        sent = self.sent
        iterations = np.unique(ks).tolist()
        if whole and len(iterations) == 1:
            # One iteration of every worker: keep the block.
            sent[iterations[0]] = out
            return
        for k in iterations:
            if k not in sent:
                sent[k] = np.empty_like(x)
            same = ks == k
            sent[k][rows[same]] = out[same]

    def combine(self, cs: np.ndarray) -> None:
        """Reduce and apply: combine ``c`` is one worker-iteration's
        reduce, its own evaluation first, then its updates in arrival
        order."""
        max_iter, inputs, x = self.max_iter, self.inputs, self.x
        first = self.offsets[cs]
        rows, ks = np.divmod(inputs[first], max_iter)
        count = self.offsets[cs + 1] - first - 1
        counts = np.unique(count).tolist()
        # One update count (a regular graph in lockstep): the reduced
        # block is the level's, with no copy.
        out = None if len(counts) == 1 else np.empty((len(cs), x.shape[1]))
        for c in counts:
            group = np.flatnonzero(count == c)
            position = first[group, None] + np.arange(1, c + 1)
            who, when = np.divmod(inputs[position], max_iter)
            blocks = self._columns(when, who)
            if self.weighted:
                weights = staleness_weights(when, ks[group], self.window)
                reduced = weighted_reduce_rows(blocks, weights)
            else:
                reduced = mean_reduce_rows(blocks, c)
            if out is None:
                out = reduced
            else:
                out[group] = reduced
        x[rows] = EagerPlane.apply(out, x[rows]) if self.parallel else out
        self.progress[rows] += 1
        floor = int(self.progress.min()) - self.window
        for k in [k for k in self.sent if k < floor]:
            del self.sent[k]

    def _columns(self, when: np.ndarray, who: np.ndarray):
        # Arrival order: column t is every row's t-th update, worker
        # who[r, t]'s at iteration when[r, t]; each a fresh array.
        for t in range(who.shape[1]):
            tags, first = when[:, t], int(when[0, t])
            if (tags == first).all():  # always, in lockstep
                yield self.sent[first][who[:, t]]
                continue
            column = np.empty((len(who), self.x.shape[1]))
            for tag in np.unique(tags).tolist():
                same = tags == tag
                column[same] = self.sent[tag][who[same, t]]
            yield column
