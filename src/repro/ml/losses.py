"""Loss functions with analytic gradients.

The paper's two workloads map to :class:`SoftmaxCrossEntropy` (CNN on
image classification) and :class:`LogisticLoss` (the paper uses "log
loss for SVM instead of hinge loss").
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: Largest exponent below which numpy's complex ``exp`` of ``r + 0j``
#: has libm's ``exp(r)`` as its real part: glibc's ``cexp`` takes a
#: scaled path above ``int((DBL_MAX_EXP - 1) * ln 2) = 709``.
_CEXP_EXACT = 709.0
#: ``exp(r)`` overflows for every ``r`` at or past this.
_EXP_OVERFLOW = 710.0


def expit(x) -> np.ndarray:
    """``scipy.special.expit(x)``, ``1 / (1 + exp(-x))``, bit for bit.

    float64 arrays of any shape; see :func:`expit_neg`.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.zeros(x.shape, dtype=np.complex128)
    np.negative(x, out=z.real)
    return expit_neg(z.reshape(-1)).reshape(x.shape)


def expit_neg(z: np.ndarray) -> np.ndarray:
    """``expit(-r)`` = ``1 / (1 + exp(r))`` for the real part ``r`` of
    ``z``, a C-contiguous complex128 buffer of at least one dimension
    whose imaginary part is zero; ``z`` is overwritten.

    numpy's float64 ``exp`` is not libm's (it differs in the last bit on
    a few percent of inputs), but its complex ``exp`` is ``cexp``, whose
    real part for a zero imaginary part and ``r < 709`` is libm's
    ``exp(r)`` times 1.0.  Past that, ``cexp`` scales, so ``r`` in
    ``[709, 710)`` and NaN take ``math.exp`` (libm's; an overflow is
    ``inf``, a NaN its own), and ``r >= 710`` overflows to ``inf``: the
    result is scipy's there too, ``+0.0``.  No floating-point warning is
    raised.  docs/ARCHITECTURE.md, "The SVM's sigmoid", has the argument.
    """
    if np.maximum.reduce(z.real, axis=None, initial=-math.inf) < _CEXP_EXACT:
        np.exp(z, out=z)
    else:
        # The max is NaN if any element is, so NaNs come here too.
        flat = z.reshape(-1)
        r = flat.real
        odd = (~(r < _CEXP_EXACT)).nonzero()[0]
        exponents = r[odd]
        r[odd] = 0.0
        np.exp(flat, out=flat)
        r[odd] = math.inf
        scalar = ~(exponents >= _EXP_OVERFLOW)
        band = odd[scalar]
        if band.size:
            for i, value in zip(band.tolist(), exponents[scalar].tolist()):
                if value != value:
                    r[i] = value
                    continue
                try:
                    r[i] = math.exp(value)
                except OverflowError:
                    pass  # inf already
    sigma = np.add(z.real, 1.0)
    return np.divide(1.0, sigma, out=sigma)


class Loss:
    """Base class: ``value_and_grad`` returns (mean loss, d loss / d scores)."""

    def value_and_grad(
        self, scores: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        raise NotImplementedError

    def value(self, scores: np.ndarray, targets: np.ndarray) -> float:
        return self.value_and_grad(scores, targets)[0]


class SoftmaxCrossEntropy(Loss):
    """Multi-class cross entropy over unnormalized scores.

    ``targets`` are integer class labels of shape ``(N,)``.

    The shift/exp/normalize chain runs in one reusable probability
    buffer (per loss instance — each model owns its loss), so the
    per-minibatch hot path allocates only the returned gradient.  The
    operation order matches the former out-of-place arithmetic exactly.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray = np.zeros(0)
        self._rows: np.ndarray = np.zeros(0, dtype=np.intp)

    def value_and_grad(
        self, scores: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        n = scores.shape[0]
        targets = np.asarray(targets, dtype=int)
        dtype = scores.dtype if scores.dtype.kind == "f" else np.float64
        probs = self._probs
        if probs.shape != scores.shape or probs.dtype != dtype:
            probs = self._probs = np.empty(scores.shape, dtype=dtype)
        rows = self._rows
        if rows.size != n:
            rows = self._rows = np.arange(n)
        np.subtract(scores, scores.max(axis=1, keepdims=True), out=probs)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        eps = 1e-12
        loss = float(-np.mean(np.log(probs[rows, targets] + eps)))
        dscores = probs.copy()
        dscores[rows, targets] -= 1.0
        dscores /= n
        return loss, dscores


class LogisticLoss(Loss):
    """Binary log loss over margins (the paper's SVM objective).

    ``scores`` has shape ``(N, 1)`` or ``(N,)``; ``targets`` are
    in {-1, +1} (0/1 labels are remapped).  The loss is
    ``mean(log(1 + exp(-y * s)))``.
    """

    @staticmethod
    def _signed_targets(targets: np.ndarray) -> np.ndarray:
        # Two cheap vectorized membership checks instead of the former
        # np.unique + np.isin pair: this runs once per minibatch on the
        # training hot path.  Outputs are unchanged.
        targets = np.asarray(targets, dtype=np.float64).ravel()
        positive = targets == 1.0
        if (positive | (targets == 0.0)).all():
            return 2.0 * targets - 1.0
        if (positive | (targets == -1.0)).all():
            return targets
        raise ValueError(
            f"labels must be 0/1 or -1/+1, got {np.unique(targets)}"
        )

    def value_and_grad(
        self, scores: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        original_shape = scores.shape
        s = np.asarray(scores, dtype=np.float64).ravel()
        y = self._signed_targets(targets)
        if s.shape != y.shape:
            raise ValueError(f"scores {s.shape} vs targets {y.shape}")
        # The margins go straight into the sigmoid's buffer.
        # add.reduce/size is np.mean minus the wrapper — bit-identical,
        # and this runs once per minibatch.
        z = np.zeros(s.shape, dtype=np.complex128)
        margins = np.multiply(y, s, out=z.real)
        neg_margins = -margins
        losses = np.logaddexp(0.0, neg_margins)  # log(1 + exp(-m)), stable
        loss = float(np.add.reduce(losses) / losses.size)
        sigma = expit_neg(z)  # = exp(-m) / (1 + exp(-m)), overflow-safe
        dscores = (-y * sigma) / s.size
        return loss, dscores.reshape(original_shape)
