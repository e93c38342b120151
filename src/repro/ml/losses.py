"""Loss functions with analytic gradients.

The paper's two workloads map to :class:`SoftmaxCrossEntropy` (CNN on
image classification) and :class:`LogisticLoss` (the paper uses "log
loss for SVM instead of hinge loss"); :class:`HingeLoss` is included
for completeness / ablations.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def expit(x):
    """``scipy.special.expit``; the first call rebinds this name to it.

    A process that never evaluates a logistic loss never pays the
    scipy.special import (0.1 s), and later steps run no ``import``.
    """
    global expit
    from scipy.special import expit

    return expit(x)


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
        margins = y * s
        # ``-margins`` feeds both the stable log term and the sigmoid;
        # negate once.  add.reduce/size is np.mean minus the wrapper —
        # bit-identical, and this runs once per minibatch.
        neg_margins = -margins
        losses = np.logaddexp(0.0, neg_margins)  # log(1 + exp(-m)), stable
        loss = float(np.add.reduce(losses) / losses.size)
        sigma = expit(neg_margins)  # = exp(-m) / (1 + exp(-m)), overflow-safe
        dscores = (-y * sigma) / s.size
        return loss, dscores.reshape(original_shape)


class HingeLoss(Loss):
    """Standard SVM hinge loss ``mean(max(0, 1 - y * s))``."""

    def value_and_grad(
        self, scores: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        original_shape = scores.shape
        s = np.asarray(scores, dtype=np.float64).ravel()
        y = LogisticLoss._signed_targets(targets)
        if s.shape != y.shape:
            raise ValueError(f"scores {s.shape} vs targets {y.shape}")
        margins = 1.0 - y * s
        loss = float(np.mean(np.maximum(0.0, margins)))
        active = (margins > 0).astype(np.float64)
        dscores = (-y * active) / s.size
        return loss, dscores.reshape(original_shape)
