"""Loss tests: values, gradients, label conventions."""

import numpy as np
import pytest

from repro.ml import (
    LogisticLoss,
    SoftmaxCrossEntropy,
    numerical_gradient,
    relative_error,
)


def loss_gradcheck(loss, scores, targets, tol=1e-6):
    _, analytic = loss.value_and_grad(scores.copy(), targets)

    def f(s):
        return loss.value_and_grad(s, targets)[0]

    numeric = numerical_gradient(f, scores.copy())
    assert relative_error(analytic, numeric) < tol


class TestSoftmaxCrossEntropy:
    def test_uniform_scores_give_log_k(self):
        loss = SoftmaxCrossEntropy()
        scores = np.zeros((4, 10))
        targets = np.array([0, 3, 5, 9])
        value, _ = loss.value_and_grad(scores, targets)
        assert value == pytest.approx(np.log(10.0))

    def test_confident_correct_gives_small_loss(self):
        loss = SoftmaxCrossEntropy()
        scores = np.array([[10.0, 0.0, 0.0]])
        value, _ = loss.value_and_grad(scores, np.array([0]))
        assert value < 1e-3

    def test_gradient_rows_sum_to_zero(self):
        loss = SoftmaxCrossEntropy()
        scores = np.random.default_rng(0).normal(size=(5, 7))
        _, grad = loss.value_and_grad(scores, np.arange(5))
        assert np.allclose(grad.sum(axis=1), 0.0)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        loss_gradcheck(
            SoftmaxCrossEntropy(),
            rng.normal(size=(6, 4)),
            rng.integers(0, 4, size=6),
        )

    def test_numerical_stability_large_scores(self):
        loss = SoftmaxCrossEntropy()
        scores = np.array([[1000.0, 0.0], [0.0, 1000.0]])
        value, grad = loss.value_and_grad(scores, np.array([0, 1]))
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))


class TestLogisticLoss:
    def test_zero_margin_gives_log2(self):
        loss = LogisticLoss()
        value, _ = loss.value_and_grad(np.zeros(4), np.array([1, 0, 1, 0]))
        assert value == pytest.approx(np.log(2.0))

    def test_accepts_both_label_conventions(self):
        loss = LogisticLoss()
        scores = np.array([1.0, -2.0])
        v01, _ = loss.value_and_grad(scores, np.array([1, 0]))
        vpm, _ = loss.value_and_grad(scores, np.array([1, -1]))
        assert v01 == pytest.approx(vpm)

    def test_rejects_other_labels(self):
        with pytest.raises(ValueError):
            LogisticLoss().value_and_grad(np.zeros(2), np.array([2, 3]))

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        loss_gradcheck(
            LogisticLoss(),
            rng.normal(size=(8,)),
            rng.integers(0, 2, size=8),
        )

    def test_gradient_shape_matches_input(self):
        loss = LogisticLoss()
        scores = np.zeros((5, 1))
        _, grad = loss.value_and_grad(scores, np.ones(5))
        assert grad.shape == (5, 1)

    def test_stability_large_margins(self):
        loss = LogisticLoss()
        value, grad = loss.value_and_grad(
            np.array([1000.0, -1000.0]), np.array([1, 0])
        )
        assert np.isfinite(value)
        assert np.all(np.isfinite(grad))
        assert value < 1e-6

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            LogisticLoss().value_and_grad(np.zeros(3), np.array([1, 0]))
