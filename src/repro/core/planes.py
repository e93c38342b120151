"""The two numeric planes behind :meth:`HopWorker.run`'s one control loop.

Control — queues, tokens, timeouts, the gap — never reads a parameter
(``tests/core/test_value_independence.py``), so a worker's loop calls
its arithmetic through a *plane* and never looks at what comes back:

* :class:`EagerPlane` does the math in the loop, one worker and one
  vector at a time: ``set_params`` + a compute ticket before the
  compute timeout, the SGD step after it, the reduce into the worker's
  scratch, the apply.  Every run that :func:`replayable` turns down
  takes it.
* :class:`RecordPlane` does none of it.  Sends carry no parameters
  (an :class:`~repro.core.update.Update` names ``(sender, iteration)``),
  compute submits nothing, and each reduce records which updates
  entered it, in arrival order.  After ``env.run()`` :func:`replay`
  evaluates the recorded schedule level by level, as a few numpy calls
  over all workers.

docs/ARCHITECTURE.md, "Replay", has the record format, the level order,
the argument that replay is bit for bit the eager arithmetic, and why
each eager case is eager.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence

import numpy as np

from repro.core.reducers import (
    mean_reduce,
    mean_reduce_rows,
    staleness_weighted_reduce,
    staleness_weights,
    weighted_reduce_rows,
)
from repro.ml.optim import SGD
from repro.sim.trace import StatAccumulator

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
        #: The loss of the iteration in flight (logged by :meth:`end`).
        self.loss = None

    def initial(self) -> np.ndarray:
        """The worker's parameters at iteration 0."""
        return self.worker.model.get_params()

    @staticmethod
    def payload(params: np.ndarray) -> np.ndarray:
        """What a Send carries: an owned copy (``params`` may alias the
        reduce scratch)."""
        return params.copy()

    def compute(self, x: np.ndarray):
        """Before the compute timeout: fix the gradient's inputs."""
        worker = self.worker
        model = worker.model
        model.set_params(x)
        return worker.compute.submit(model, worker.batcher)

    def step(self, ticket, x: np.ndarray, k: int) -> np.ndarray:
        """After it: the optimizer's delta for iteration ``k``."""
        self.loss, grad = ticket.result()
        return self.worker.optimizer.step(x, grad, k)

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

    def end(self, now: float) -> None:
        """The iteration's loss, logged and accumulated."""
        worker = self.worker
        worker._log_loss(now, self.loss)
        worker.losses.add(self.loss)


class RecordPlane:
    """Control only: every arithmetic call returns ``None``, and each
    reduce appends one record to this worker's columns.

    Per worker-iteration ``k`` (one reduce each, in order): ``counts[k]``
    updates entered the reduce; their senders follow in ``senders`` in
    arrival order; ``times[k]`` is when the loss is logged.  Under
    staleness, ``tags`` holds each update's iteration and ``ready[k]``
    the replay level at which the worker's iteration-``k`` parameters
    exist (``ready[0] == 0``); standard and backup reduce only updates
    of their own iteration, so there ``ready[k] == k`` and neither
    column is kept.
    """

    __slots__ = ("counts", "senders", "times", "tags", "ready", "_planes")

    def __init__(self, planes: List["RecordPlane"], tagged: bool) -> None:
        self.counts = array("i")
        self.senders = array("i")
        self.times = array("d")
        self.tags = array("i") if tagged else None
        self.ready = array("i", [0]) if tagged else None
        #: Every worker's plane, by wid: a tagged record reads the
        #: senders' ``ready`` columns.
        self._planes = planes

    @staticmethod
    def initial() -> None:
        return None

    @staticmethod
    def payload(params) -> None:
        return None

    @staticmethod
    def compute(x) -> None:
        return None

    @staticmethod
    def step(ticket, x, k: int) -> None:
        return None

    def mean(self, updates, k: int) -> None:
        self.counts.append(len(updates))
        append = self.senders.append
        for update in updates:
            append(update.sender)
        if self.tags is not None:
            self._tag(updates, k)
        return None

    def weighted(self, updates, k: int, staleness: int) -> None:
        # The flavour is the run's; the replay reads it off the config.
        return self.mean(updates, k)

    def _tag(self, updates, k: int) -> None:
        # The reduce's result exists one level after the latest
        # parameters it reads, the worker's own included.
        planes = self._planes
        append = self.tags.append
        level = self.ready[k]
        for update in updates:
            append(update.iteration)
            known = planes[update.sender].ready[update.iteration]
            if known > level:
                level = known
        self.ready.append(level + 1)

    @staticmethod
    def apply(reduced, delta) -> None:
        return None

    @staticmethod
    def applied(x, delta) -> None:
        return None

    def end(self, now: float) -> None:
        self.times.append(now)


class Schedule:
    """One run's recorded schedule: a :class:`RecordPlane` per worker."""

    def __init__(self, tagged: bool) -> None:
        self.tagged = tagged
        self.planes: List[RecordPlane] = []

    def plane(self) -> RecordPlane:
        """The next worker's plane (workers are built in wid order)."""
        plane = RecordPlane(self.planes, self.tagged)
        self.planes.append(plane)
        return plane


def replayable(cluster, config, models: Sequence[object]) -> bool:
    """Whether a run of :class:`~repro.core.worker.HopWorker` loops
    records its schedule and replays the math.

    Every condition is a property of the spec and of ``config``, the
    one the workers run (NOTIFY-ACK's ignores the spec's): no churn plan
    and no crash events (re-sync copies a peer's ``current_params``
    mid-run); no compression (error feedback on Send is stateful); no
    skip policy (a jump injects a local update and refreshes at
    ``target - 1``); plain :class:`SGD`; and every model offers a
    stacked kernel (a per-ticket model such as the CNN may share state
    between replicas, so it keeps the eager submission order).
    """
    return (
        cluster.churn is None
        and not cluster.crash_events
        and cluster.compression is None
        and config.skip is None
        and type(cluster.optimizer_proto) is SGD
        and all(model.stacked_kernel is not None for model in models)
    )


def replay(
    schedule: Schedule,
    workers: Sequence["HopWorker"],
    pool,
    optimizer: SGD,
    config,
) -> None:
    """Evaluate a recorded run's arithmetic into its workers.

    A *level* is a set of worker-iterations whose inputs all exist:
    level 0 computes every worker's iteration-0 gradient, and each later
    level reduces and applies the worker-iterations whose contributors
    are ready, then computes those workers' next gradients.  Standard
    and backup reduce only their own iteration's updates, so level
    ``k + 1`` is every worker at iteration ``k``; staleness may read a
    neighbour's newer update, and its levels follow the recorded
    ``ready`` column.  Fills ``final_params``, ``current_params``,
    ``losses`` and the ``loss/<wid>`` series of every worker.
    """
    planes = schedule.planes
    n = len(workers)
    max_iter = workers[0].max_iter
    models = [worker.model for worker in workers]
    batchers = [worker.batcher for worker in workers]
    parallel = config.computation_graph == "parallel"
    weighted = config.mode == "staleness" and config.stale_reduce == "weighted"
    window = config.staleness if config.mode == "staleness" else 0

    counts = np.stack([np.frombuffer(p.counts, dtype=np.intc) for p in planes])
    # Offsets into the flat columns, which concatenate worker by worker.
    starts = (np.cumsum(counts) - counts.ravel()).reshape(n, max_iter)
    senders = np.concatenate(
        [np.frombuffer(p.senders, dtype=np.intc) for p in planes]
    )
    if schedule.tagged:
        tags = np.concatenate(
            [np.frombuffer(p.tags, dtype=np.intc) for p in planes]
        )
        ready = np.stack(
            [np.frombuffer(p.ready, dtype=np.intc) for p in planes]
        )
    else:
        tags = None
        ready = np.broadcast_to(np.arange(max_iter + 1), (n, max_iter + 1))

    x = np.stack([model.get_params() for model in models])
    dim = x.shape[1]
    velocity = np.zeros_like(x) if optimizer.momentum > 0.0 else None
    # Parallel graph: each worker's delta waits for its reduce.
    pending = np.empty_like(x) if parallel else None
    #: What each worker sent at each iteration, by iteration; a level
    #: array lives while some reduce may still read it.
    sent: Dict[int, np.ndarray] = {}
    progress = np.zeros(n, dtype=np.intp)  # reduces done, per worker
    loss_at = np.empty((n, max_iter))

    def compute(rows: np.ndarray, ks: np.ndarray) -> None:
        params = x[rows]
        wids = rows.tolist()
        losses, grads = pool.evaluate_rows(
            [models[i] for i in wids], params, [batchers[i] for i in wids]
        )
        if velocity is None:
            delta = optimizer.step_rows(params, grads, ks)
        else:
            moment = velocity[rows]
            delta = optimizer.step_rows(params, grads, ks, moment)
            velocity[rows] = moment
        loss_at[rows, ks] = losses
        if parallel:
            pending[rows] = delta
            out = params
        else:
            out = params + delta
        iterations = np.unique(ks).tolist()
        whole = len(rows) == n and len(iterations) == 1
        if whole and iterations[0] not in sent:
            # One iteration of every worker, in wid order: keep the block.
            sent[iterations[0]] = out
            return
        for k in iterations:
            level = sent.get(k)
            if level is None:
                level = sent[k] = np.empty_like(x)
            same = ks == k
            level[rows[same]] = out[same]

    def gather(when, who: np.ndarray) -> np.ndarray:
        # Row r's update from worker who[r] at iteration when[r]; an int
        # ``when`` is one iteration for the whole block.
        if not isinstance(when, int):
            first = int(when[0])
            if not (when == first).all():
                out = np.empty((len(who), dim))
                for tag in np.unique(when).tolist():
                    same = when == tag
                    out[same] = sent[tag][who[same]]
                return out
            when = first
        return sent[when][who]

    def columns(when, who: np.ndarray) -> Iterator[np.ndarray]:
        # Arrival order: column t is every row's t-th update.
        for t in range(who.shape[1]):
            tag = when if isinstance(when, int) else when[:, t]
            yield gather(tag, who[:, t])

    def reduce(rows: np.ndarray, ks: np.ndarray) -> None:
        count = counts[rows, ks]
        start = starts[rows, ks]
        out = np.empty((len(rows), dim))
        for c in np.unique(count).tolist():
            group = np.flatnonzero(count == c)
            position = start[group, None] + np.arange(c)
            who = senders[position]
            # Untagged, every update is of the level's own iteration.
            when = int(ks[group[0]]) if tags is None else tags[position]
            blocks = columns(when, who)
            if weighted:
                out[group] = weighted_reduce_rows(
                    blocks, staleness_weights(when, ks[group], window)
                )
            else:
                out[group] = mean_reduce_rows(blocks, c)
        x[rows] = EagerPlane.apply(out, pending[rows]) if parallel else out
        progress[rows] += 1

    compute(np.arange(n), np.zeros(n, dtype=np.intp))
    done_at = ready[:, 1:]
    order = np.argsort(done_at, axis=None, kind="stable")
    levels = done_at.ravel()[order]
    bounds = np.flatnonzero(np.diff(levels)) + 1
    for nodes in np.split(order, bounds):
        rows, ks = np.divmod(nodes, max_iter)
        reduce(rows, ks)
        more = ks + 1 < max_iter
        if more.any():
            compute(rows[more], ks[more] + 1)
        floor = int(progress.min()) - window
        for k in [k for k in sent if k < floor]:
            del sent[k]

    # Each worker's losses in iteration order, as its loop adds them.
    accumulators = StatAccumulator.per_row(loss_at)
    for worker, plane, params, losses, accumulator in zip(
        workers, planes, x, loss_at.tolist(), accumulators
    ):
        worker.final_params = worker.current_params = params
        worker.losses = accumulator
        worker.tracer.extend(f"loss/{worker.wid}", zip(plane.times, losses))
