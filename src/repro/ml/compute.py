"""The compute seam: gradients submitted early, evaluated late, stacked.

Every protocol computes a worker's gradient *before* it yields the
simulated compute time and reads it only *after*, and nothing in between
depends on the value — simulated durations never read a parameter.  So
the math can wait::

    model.set_params(x)
    ticket = runtime.compute.submit(model, batcher)   # draws the batch
    yield env.timeout(compute_model.duration(wid, k))
    loss, grad = ticket.result()                      # evaluates the pool

``submit`` fixes a ticket's inputs — the model's parameters as they are
now and the batch *indices*, drawn from the worker's own stream exactly
as :meth:`Batcher.next_batch` draws them.  The first ``result()`` of an
unevaluated ticket evaluates every pending ticket, in submission order.
Tickets whose model offers a stacked kernel (``Model.stacked_kernel``)
are evaluated together, in chunks bounded by gathered bytes; every other
ticket goes through the unchanged :meth:`Model.loss_and_grad`, the
kernel of record, on the very arrays ``next_batch()`` would have
returned.  docs/ARCHITECTURE.md, "The compute seam", has the contract
and the rule for adding a stacked kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml import losses
from repro.ml.layers import Dense

#: Bytes of gathered minibatch rows one stacked kernel call may hold
#: (16 tickets of the bench SVM's 64 x 64 float64 batch): enough to
#: amortize the numpy calls, too little to show in the resident set.
_CHUNK_BYTES = 1 << 19


def _chunk_rows(x: np.ndarray, batch: int) -> int:
    """Rows of one stacked kernel call: ``_CHUNK_BYTES`` of gathered
    minibatch rows, at least one."""
    gathered = batch * (x.nbytes // len(x))
    return max(1, _CHUNK_BYTES // max(1, gathered))


class ComputeError(RuntimeError):
    """A ticket's evaluation failed; the message names its worker.

    Raised from the ``result()`` that triggered the evaluation — which
    may belong to another worker — with the original error as
    ``__cause__``.
    """


class Ticket:
    """One submitted gradient evaluation (see :class:`ComputePool`)."""

    __slots__ = ("_pool", "model", "x", "y", "idx", "_outcome")

    def __init__(self, pool, model, x, y, idx) -> None:
        self._pool = pool
        self.model = model
        self.x = x
        self.y = y
        self.idx = idx
        #: ``None`` until evaluated, then ``(loss, grad)`` or the
        #: :class:`ComputeError` the evaluation ended in.
        self._outcome = None

    def result(self) -> Tuple[float, np.ndarray]:
        """``(loss, grad)`` exactly as ``model.loss_and_grad`` returns
        them: ``grad`` is the model's read-only gradient view, valid
        until the model's next ticket is evaluated."""
        if self._outcome is None:
            self._pool.flush()
        outcome = self._outcome
        if type(outcome) is tuple:
            return outcome
        raise outcome


class ComputePool:
    """Pending gradient evaluations of one run.

    Lifecycle rules:

    * a model has at most one open (submitted, unevaluated) ticket —
      a second ``submit`` raises;
    * anything that would move an open ticket's inputs or outputs
      (``Model.set_params``, ``astype``, a direct ``loss_and_grad``)
      evaluates the pool first, so a ticket always sees the parameters
      it was submitted with;
    * a ticket nobody consumes is evaluated with the rest and touches
      only its own model;
    * a failing ticket raises :class:`ComputeError` naming its worker
      from whichever ``result()`` triggered the evaluation; tickets not
      yet evaluated stay pending.

    A replaying run has one model and no replicas: its rows are worker
    ids (:meth:`evaluate_rows`), evaluated under ``model``'s kernel.

    The six counters are exact and host-independent; they are
    observability only and never enter a ``TrainingRun``.
    """

    def __init__(
        self, models: Sequence[object] = (), model: object = None
    ) -> None:
        #: Model replicas by worker id (none when the run replays):
        #: only read to find a ticket's worker.
        self._models = models
        #: The run's model: its kernel evaluates replay rows, and its
        #: size and dtype shape a stub's zero gradient.
        self.model = model if model is not None else models[0]
        self._pending: List[Ticket] = []
        #: ``(y, signed_labels(y))`` of the last label vector evaluated:
        #: a run's workers share one, signed once.
        self._signed: Tuple[object, Optional[np.ndarray]] = (None, None)
        #: Stub outcomes by worker id (:meth:`stub`).
        self._stubs: Dict[int, Ticket] = {}
        #: Tickets submitted (stub tickets included).
        self.tickets = 0
        #: Evaluations of a non-empty pool.
        self.flushes = 0
        #: Tickets evaluated by a stacked kernel / by ``loss_and_grad``
        #: (``fallback`` also counts replayed rows a kernel declined).
        self.stacked = 0
        self.fallback = 0
        #: Replay blocks evaluated (:meth:`evaluate_rows`) and the rows
        #: they held: a replayed run sends no ticket through the pool.
        self.levels = 0
        self.rows = 0

    @property
    def mean_batch(self) -> float:
        """Tickets per flush: how many workers one evaluation served."""
        return self.tickets / self.flushes if self.flushes else 0.0

    def submit(self, model, batcher) -> Ticket:
        """Open a ticket for ``model`` at its current parameters on
        ``batcher``'s next batch (drawn now)."""
        self.tickets += 1
        if self._stubs:
            stub = self._stubs.get(self._wid(model))
            if stub is not None:
                return stub
        if model._ticket is not None:
            raise RuntimeError(
                f"{self._name(model)} already has an open compute ticket"
            )
        ticket = Ticket(
            self, model, batcher.x, batcher.y, batcher.next_indices()
        )
        model._ticket = ticket
        self._pending.append(ticket)
        return ticket

    def stub(self, wid: int) -> None:
        """Resolve every later ticket and replay row of worker ``wid`` to
        a zero loss and a zero gradient of the model's size and dtype,
        with no arithmetic and no batch draw.

        Control flow is value-independent — queue waits, token flow, gap
        tracking, suppression checks and message pricing never read a
        parameter — so a stubbed worker keeps every simulated time and
        counter of the real one (``tests/core/test_value_independence.py``
        holds that bit for bit).
        """
        params = self.model.get_params()
        zero = np.zeros(params.size, dtype=params.dtype)
        zero.flags.writeable = False
        ticket = Ticket(self, None, None, None, None)
        ticket._outcome = (0.0, zero)
        self._stubs[wid] = ticket

    def flush(self) -> None:
        """Evaluate every pending ticket, in submission order."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        self.flushes += 1
        try:
            self._evaluate(pending)
        except BaseException:
            self._pending = [t for t in pending if t._outcome is None]
            raise

    def _evaluate(self, pending: List[Ticket]) -> None:
        # Per-ticket evaluations run in submission order, the eager
        # code's; stacked tickets go after, grouped.  A ticket reads
        # only its own model and batch, so neither order moves a bit.
        groups: Dict[tuple, List[Ticket]] = {}
        for ticket in pending:
            model = ticket.model
            kernel = model.stacked_kernel
            if kernel is None:
                self._evaluate_one(ticket)
                continue
            key = (
                kernel,
                model._flat.size,
                id(ticket.x),
                id(ticket.y),
                ticket.idx.size,
            )
            group = groups.get(key)
            if group is None:
                groups[key] = [ticket]
            else:
                group.append(ticket)
        for key, group in groups.items():
            self._evaluate_stacked(key[0], group)

    def _evaluate_one(self, ticket: Ticket) -> None:
        model = ticket.model
        model._ticket = None
        idx = ticket.idx
        try:
            ticket._outcome = model.loss_and_grad(
                ticket.x[idx], ticket.y[idx]
            )
        except Exception as error:
            named = ComputeError(
                f"{self._name(model)}: {type(error).__name__}: {error}"
            )
            ticket._outcome = named
            raise named from error
        self.fallback += 1

    def _evaluate_stacked(self, kernel, group: List[Ticket]) -> None:
        x, y = group[0].x, group[0].y
        signed = self._signed_labels(y)
        step = _chunk_rows(x, group[0].idx.size)
        for lo in range(0, len(group), step):
            chunk = group[lo : lo + step]
            idx = np.concatenate([t.idx for t in chunk]).reshape(
                len(chunk), -1
            )
            params = np.concatenate([t.model._flat for t in chunk]).reshape(
                len(chunk), -1
            )
            evaluated = kernel(params, x, y, idx, signed)
            if evaluated is None:
                # Inputs the kernel does not reproduce bit for bit (or
                # that loss_and_grad rejects): the kernel of record
                # decides, and says which worker.
                for ticket in chunk:
                    self._evaluate_one(ticket)
                continue
            self.stacked += len(chunk)
            for ticket, value, grad in zip(chunk, *evaluated):
                model = ticket.model
                model._ticket = None
                np.copyto(model._flat_grad, grad)
                ticket._outcome = (value, model._grad_view)

    def evaluate_rows(
        self, wids: np.ndarray, ks: np.ndarray, params: np.ndarray, horizons
    ) -> Tuple[List[float], np.ndarray]:
        """One replay level: row ``r`` is worker ``wids[r]``'s loss and
        gradient at ``params[r]`` on its batch ``ks[r]``, gathered from
        ``horizons`` (a :class:`~repro.ml.data.Horizons`) for every row
        at once.

        :attr:`model`'s kernel evaluates the block, in the chunks a flush
        uses, so every row is bit for bit what a ticket submitted at
        those parameters returns.  A stubbed worker's row is a zero loss
        and a zero gradient with no draw (:meth:`stub`); rows the kernel
        declines go through ``loss_and_grad`` at the row's parameters,
        which raises the error of record as a :class:`ComputeError`
        naming the worker.  Returns the losses and a fresh
        ``params``-shaped gradient block.
        """
        self.levels += 1
        self.rows += len(wids)
        losses = [0.0] * len(wids)
        grads = np.zeros(params.shape, dtype=params.dtype)
        live = None
        if self._stubs:
            stubs = self._stubs
            live = np.flatnonzero([w not in stubs for w in wids.tolist()])
            wids, ks = wids[live], ks[live]
        if not len(wids):
            return losses, grads
        idx = horizons.rows(wids, ks)
        kernel = self.model.stacked_kernel
        x, y = horizons.x, horizons.y
        signed = self._signed_labels(y)
        step = _chunk_rows(x, horizons.batch_size)
        for lo in range(0, len(idx), step):
            hi = lo + step
            block = idx[lo:hi]
            # Without stubs a chunk is a slice: its parameters a view.
            rows = slice(lo, hi) if live is None else live[lo:hi]
            evaluated = kernel(params[rows], x, y, block, signed)
            if evaluated is None:
                at = range(lo, lo + len(block)) if live is None else rows
                for r, wid, row in zip(at, wids[lo:hi].tolist(), block):
                    losses[r] = self._evaluate_row(
                        wid, params[r], x[row], y[row], grads[r]
                    )
                continue
            loss_values, grads[rows] = evaluated
            if live is None:
                losses[lo:hi] = loss_values
            else:
                for r, value in zip(rows.tolist(), loss_values):
                    losses[r] = value
        return losses, grads

    def _signed_labels(self, y: np.ndarray) -> Optional[np.ndarray]:
        held, signed = self._signed
        if held is not y:
            signed = signed_labels(y)
            self._signed = (y, signed)
        return signed

    def _evaluate_row(self, wid: int, params, x, y, out) -> float:
        """``loss_and_grad`` of :attr:`model` at ``params``; the gradient
        lands in ``out``."""
        model = self.model
        try:
            model.set_params(params)
            value, grad = model.loss_and_grad(x, y)
        except Exception as error:
            raise ComputeError(
                f"worker {wid}: {type(error).__name__}: {error}"
            ) from error
        np.copyto(out, grad)
        self.fallback += 1
        return value

    def _wid(self, model) -> Optional[int]:
        for wid, candidate in enumerate(self._models):
            if candidate is model:
                return wid
        return None

    def _name(self, model) -> str:
        wid = self._wid(model)
        return repr(model) if wid is None else f"worker {wid}"

    def __repr__(self) -> str:
        return (
            f"<ComputePool tickets={self.tickets} flushes={self.flushes} "
            f"stacked={self.stacked} fallback={self.fallback} "
            f"pending={len(self._pending)} levels={self.levels} "
            f"rows={self.rows}>"
        )


# ----------------------------------------------------------------------
# Stacked kernels
# ----------------------------------------------------------------------
def signed_labels(y: np.ndarray) -> Optional[np.ndarray]:
    """A stacked kernel's labels, signed once for the whole vector:
    ``LogisticLoss``'s ±1 targets of ``y`` when every label is 0/1 or
    every label is ±1, else ``None`` (then each chunk signs and checks
    its own).  The sign map is elementwise, so gathering the signed
    vector is signing the gathered rows."""
    try:
        return losses.LogisticLoss._signed_targets(y)
    except ValueError:
        return None


def svm_stacked_loss_and_grad(
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    signed: Optional[np.ndarray] = None,
) -> Optional[Tuple[List[float], np.ndarray]]:
    """``loss_and_grad`` of the paper's SVM for every row of a parameter
    block in one pass: row ``r`` is the model whose flat parameters are
    ``params[r]`` on the batch ``x[idx[r]], y[idx[r]]``.

    The model is ``Dense(F, 1)`` under :class:`LogisticLoss` (see
    :func:`stacked_kernel_for`), so a row is ``F`` weights and a bias.
    Returns the losses as Python floats and a fresh ``params``-shaped
    gradient block — all bit for bit what the per-model call produces:
    the same BLAS routine per row behind one stacked ``matmul`` each
    way, the same pairwise row sums, the same elementwise chain.
    Returns ``None`` — touching nothing — for inputs outside that
    guarantee or that ``loss_and_grad`` would reject (a feature-count
    mismatch, labels that are neither all 0/1 nor all -1/+1 across the
    block); the caller then runs the per-model path, which raises the
    error of record.  ``signed``, :func:`signed_labels` of ``y``, is
    gathered in place of signing the block's labels.
    """
    count, width = params.shape
    features = width - 1
    if (
        x.ndim != 2
        or x.shape[1] != features
        or x.dtype != np.float64
        or params.dtype != np.float64
        or y.ndim != 1
    ):
        return None
    batch = idx.shape[1]
    # ``take`` gathers the same rows as ``x[idx]``, faster.
    if signed is not None:
        signed = signed.take(idx)
    else:
        try:
            # One convention for the chunk implies the same one per row:
            # a row of all +1 labels signs to +1 under either.
            signed = losses.LogisticLoss._signed_targets(y[idx])
        except ValueError:
            return None
        signed = signed.reshape(count, batch)
    rows = x.take(idx, axis=0)
    # Dense.forward: x @ W.T + b, one (batch, F) @ (F, 1) per model.
    scores = (
        np.matmul(rows, params[:, :features, None])
        + params[:, features:, None]
    )
    # LogisticLoss.value_and_grad over (count, batch), the margins
    # written straight into the sigmoid's buffer.
    z = np.zeros((count, batch), dtype=np.complex128)
    margins = np.multiply(signed, scores.reshape(count, batch), out=z.real)
    neg_margins = -margins
    loss_values = (
        np.add.reduce(np.logaddexp(0.0, neg_margins), axis=1) / batch
    )
    dscores = (-signed * losses.expit_neg(z)) / batch
    # Dense.backward into zeroed buffers (neither product nor sum can
    # come out -0.0, so `0.0 + g` is `g`).
    grads = np.empty((count, width))
    grads[:, :features] = np.matmul(dscores[:, None, :], rows).reshape(
        count, features
    )
    grads[:, features] = np.add.reduce(dscores, axis=1)
    return loss_values.tolist(), grads


def stacked_kernel_for(network, loss, dtype):
    """The stacked kernel that reproduces ``loss_and_grad`` bit for bit
    for an unregularized model of this shape, or ``None`` (evaluate per
    ticket)."""
    layers = network.layers
    if (
        len(layers) == 1
        and type(layers[0]) is Dense
        and layers[0].out_features == 1
        and type(loss) is losses.LogisticLoss
        and dtype == np.float64
    ):
        return svm_stacked_loss_and_grad
    return None
