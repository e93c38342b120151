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

    The four counters are exact and host-independent; they are
    observability only and never enter a ``TrainingRun``.
    """

    def __init__(self, models: Sequence[object] = ()) -> None:
        #: Models by worker id: only read to name a worker in an error.
        self._models = models
        self._pending: List[Ticket] = []
        self._stubs: Dict[int, Ticket] = {}
        #: Tickets submitted (stub tickets included).
        self.tickets = 0
        #: Evaluations of a non-empty pool.
        self.flushes = 0
        #: Tickets evaluated by a stacked kernel / by ``loss_and_grad``.
        self.stacked = 0
        self.fallback = 0

    @property
    def mean_batch(self) -> float:
        """Tickets per flush: how many workers one evaluation served."""
        return self.tickets / self.flushes if self.flushes else 0.0

    def submit(self, model, batcher) -> Ticket:
        """Open a ticket for ``model`` at its current parameters on
        ``batcher``'s next batch (drawn now)."""
        self.tickets += 1
        if self._stubs:
            stub = self._stubs.get(id(model))
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

    def stub(self, model) -> None:
        """Resolve every later ticket for ``model`` to a zero loss and a
        zero gradient of the model's size and dtype, with no arithmetic
        and no batch draw.

        Control flow is value-independent — queue waits, token flow, gap
        tracking, suppression checks and message pricing never read a
        parameter — so a stubbed worker keeps every simulated time and
        counter of the real one.
        """
        params = model.get_params()
        zero = np.zeros(params.size, dtype=params.dtype)
        zero.flags.writeable = False
        ticket = Ticket(self, model, None, None, None)
        ticket._outcome = (0.0, zero)
        self._stubs[id(model)] = ticket

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
        # Per-ticket evaluations run in submission order, so replicas
        # that share state (a model_factory handing every replica one
        # dropout stream, say) touch it in the order the eager code did.
        # Stacked tickets share nothing and go after, grouped.
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
        gathered = group[0].idx.size * (x.nbytes // len(x))
        step = max(1, _CHUNK_BYTES // max(1, gathered))
        for lo in range(0, len(group), step):
            chunk = group[lo : lo + step]
            idx = np.concatenate([t.idx for t in chunk]).reshape(
                len(chunk), -1
            )
            loss_values = kernel([t.model for t in chunk], x, y, idx)
            if loss_values is None:
                # Inputs the kernel does not reproduce bit for bit (or
                # that loss_and_grad rejects): the kernel of record
                # decides, and says which worker.
                for ticket in chunk:
                    self._evaluate_one(ticket)
                continue
            self.stacked += len(chunk)
            for ticket, value in zip(chunk, loss_values):
                model = ticket.model
                model._ticket = None
                ticket._outcome = (value, model._grad_view)

    def _name(self, model) -> str:
        for wid, candidate in enumerate(self._models):
            if candidate is model:
                return f"worker {wid}"
        return repr(model)

    def __repr__(self) -> str:
        return (
            f"<ComputePool tickets={self.tickets} flushes={self.flushes} "
            f"stacked={self.stacked} fallback={self.fallback} "
            f"pending={len(self._pending)}>"
        )


# ----------------------------------------------------------------------
# Stacked kernels
# ----------------------------------------------------------------------
def svm_stacked_loss_and_grad(
    models: Sequence[object], x: np.ndarray, y: np.ndarray, idx: np.ndarray
) -> Optional[List[float]]:
    """``model.loss_and_grad(x[row], y[row])`` for every ``(model, row)``
    of ``zip(models, idx)`` in one pass, for the paper's SVM.

    Each model is ``Dense(F, 1)`` under :class:`LogisticLoss` (see
    :func:`stacked_kernel_for`).  Reads each model's ``_flat``, writes
    its ``_flat_grad``, returns the losses as Python floats — all bit
    for bit what the per-model call produces: the same BLAS routine per
    model behind one stacked ``matmul`` each way, the same pairwise row
    sums, the same elementwise chain.  Returns ``None`` — touching
    nothing — for inputs outside that guarantee or that
    ``loss_and_grad`` would reject (a feature-count mismatch, labels
    that are neither all 0/1 nor all -1/+1 across the chunk); the caller
    then runs the per-model path, which raises the error of record.
    """
    features = models[0].network.layers[0].in_features
    if (
        x.ndim != 2
        or x.shape[1] != features
        or x.dtype != np.float64
        or y.ndim != 1
    ):
        return None
    count, batch = idx.shape
    try:
        # One convention for the chunk implies the same one per row: a
        # row of all +1 labels signs to +1 under either.
        signed = losses.LogisticLoss._signed_targets(y[idx])
    except ValueError:
        return None
    signed = signed.reshape(count, batch)
    params = np.concatenate([m._flat for m in models]).reshape(
        count, features + 1
    )
    rows = x[idx]
    # Dense.forward: x @ W.T + b, one (batch, F) @ (F, 1) per model.
    scores = (
        np.matmul(rows, params[:, :features, None])
        + params[:, features:, None]
    )
    # LogisticLoss.value_and_grad over (count, batch).
    neg_margins = -(signed * scores.reshape(count, batch))
    loss_values = (
        np.add.reduce(np.logaddexp(0.0, neg_margins), axis=1) / batch
    )
    dscores = (-signed * losses.expit(neg_margins)) / batch
    # Dense.backward into zeroed buffers (neither product nor sum can
    # come out -0.0, so `0.0 + g` is `g`).
    grads = np.empty((count, features + 1))
    grads[:, :features] = np.matmul(dscores[:, None, :], rows).reshape(
        count, features
    )
    grads[:, features] = dscores.sum(axis=1)
    for model, grad in zip(models, grads):
        np.copyto(model._flat_grad, grad)
    return loss_values.tolist()


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
