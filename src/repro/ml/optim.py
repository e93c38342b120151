"""Optimizers operating on flat parameter vectors.

The paper's hyper-parameter setup (Section 7.2): SGD with momentum 0.9,
weight decay (1e-4 for VGG, 1e-7 for SVM), constant learning rate
(0.1 for VGG, 10 for SVM), batch size 128.

In decentralized training the optimizer state (momentum buffer) is
*worker-local*; the gradient step is computed against the worker's
pre-reduce parameters and applied to the post-reduce average, exactly
as the parallel computation graph (Figure 2b) prescribes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class SGD:
    """SGD with momentum and (decoupled) weight decay on flat vectors.

    ``step(params, grad)`` returns the *delta* to add to the
    parameters; callers decide which parameter vector to apply it to
    (pre-reduce for the serial graph, post-reduce for the parallel one).
    The learning rate :attr:`lr` is one number for the whole run.
    """

    def __init__(
        self,
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if momentum < 0 or momentum >= 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Optional[np.ndarray] = None
        #: Reusable weight-decay accumulator (allocation-free hot path).
        self._scratch: Optional[np.ndarray] = None

    def step(
        self, params: np.ndarray, grad: np.ndarray, iteration=None
    ) -> np.ndarray:
        """Compute the additive update ``delta`` for this step.

        State updates (momentum, weight-decay accumulation) happen in
        place in reusable float64 buffers; only the returned ``delta``
        is a fresh array (the caller owns it).  The in-place operation
        order reproduces the former out-of-place arithmetic bit for
        bit.  ``iteration`` is ignored: it is kept only because
        ``bench/layers.py`` still passes one (ROADMAP item 5 drops it).
        """
        scratch, velocity = self.buffers(np.shape(grad))
        if scratch is not None:
            # Bitwise equal to ``grad + wd * params`` in float64:
            # addition commutes exactly and the casts are value-exact.
            # dtype pins the loop to float64 even for float32 params.
            np.multiply(params, self.weight_decay, out=scratch, dtype=np.float64)
            scratch += grad
            effective = scratch
        else:
            effective = np.asarray(grad, dtype=np.float64)
        if velocity is not None:
            velocity *= self.momentum
            velocity += effective
            effective = velocity
        return np.multiply(effective, -self.lr)

    def buffers(self, shape) -> tuple:
        """``(scratch, velocity)``: the float64 buffers :meth:`step`
        works in for vectors of ``shape``, ``None`` where its term is
        off (a caller spelling out :meth:`step`'s ops works in them)."""
        scratch = velocity = None
        if self.weight_decay > 0.0:
            if self._scratch is None or self._scratch.shape != shape:
                self._scratch = np.empty(shape, dtype=np.float64)
            scratch = self._scratch
        if self.momentum > 0.0:
            if self._velocity is None:
                self._velocity = np.zeros(shape)
            velocity = self._velocity
        return scratch, velocity

    def step_rows(
        self,
        params: np.ndarray,
        grads: np.ndarray,
        velocity: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`step` for a block of rows: row ``r`` is one worker's
        step at ``(params[r], grads[r])``.

        Every row goes through the elementwise float64 ops of
        :meth:`step`, in its order, so each row of the result is bit for
        bit the delta that worker's own optimizer returns.  ``velocity``
        holds the rows' momentum buffers (zeros before a worker's first
        step, as :meth:`step` starts them) and is updated in place; it
        is ignored without momentum.
        """
        if self.weight_decay > 0.0:
            effective = np.multiply(
                params, self.weight_decay, dtype=np.float64
            )
            effective += grads
        else:
            effective = np.asarray(grads, dtype=np.float64)
        if self.momentum > 0.0:
            velocity *= self.momentum
            velocity += effective
            effective = velocity
        return np.multiply(effective, -self.lr)

    def clone(self) -> "SGD":
        """A fresh optimizer with the same hyper-parameters (new state)."""
        return SGD(self.lr, self.momentum, self.weight_decay)

    def __repr__(self) -> str:
        return (
            f"SGD(lr={self.lr}, momentum={self.momentum}, "
            f"weight_decay={self.weight_decay})"
        )
