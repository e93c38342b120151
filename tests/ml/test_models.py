"""Model facade tests: flat params, gradients, training sanity."""

import numpy as np
import pytest

from repro.ml import (
    SGD,
    Batcher,
    build_svm,
    build_vgg_lite,
    check_model_gradient,
    synthetic_images,
    synthetic_webspam,
)
from repro.ml.layers import Dense, Layer, ReLU
from repro.ml.losses import SoftmaxCrossEntropy
from repro.ml.models import Model, Sequential


def mlp(rng, in_features, hidden, n_classes):
    """A multilayer perceptron: Dense-ReLU per hidden width, then a
    Dense head under softmax cross entropy."""
    layers, width = [], in_features
    for out in hidden:
        layers += [Dense(width, out, rng), ReLU()]
        width = out
    layers.append(Dense(width, n_classes, rng))
    return Model(Sequential(layers), SoftmaxCrossEntropy())


def test_flat_round_trip():
    model = mlp(np.random.default_rng(0), 6, [5], 3)
    flat = model.get_params()
    assert flat.shape == (model.dim,)
    model.set_params(np.zeros(model.dim))
    assert np.all(model.get_params() == 0)
    model.set_params(flat)
    assert np.array_equal(model.get_params(), flat)


def test_set_params_wrong_size_rejected():
    model = mlp(np.random.default_rng(0), 4, [], 2)
    with pytest.raises(ValueError):
        model.set_params(np.zeros(model.dim + 1))


def test_mlp_gradcheck():
    rng = np.random.default_rng(1)
    model = mlp(rng, 5, [4], 3)
    x = rng.normal(size=(6, 5))
    y = rng.integers(0, 3, size=6)
    assert check_model_gradient(model, x, y) < 1e-5


def test_svm_gradcheck():
    rng = np.random.default_rng(2)
    model = build_svm(rng, 8)
    x = rng.normal(size=(10, 8))
    y = rng.integers(0, 2, size=10)
    assert check_model_gradient(model, x, y) < 1e-6


def test_vgg_lite_gradcheck_small():
    rng = np.random.default_rng(3)
    model = build_vgg_lite(
        rng, image_size=4, channels=1, n_classes=3, base_filters=2, hidden=4
    )
    x = rng.normal(size=(2, 1, 4, 4))
    y = rng.integers(0, 3, size=2)
    assert check_model_gradient(model, x, y) < 1e-4


def test_l2_term_included_in_loss_and_grad():
    rng = np.random.default_rng(4)
    plain = build_svm(rng, 4)
    regularized = build_svm(np.random.default_rng(4), 4)
    regularized.l2 = 0.1

    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 2, size=5)
    loss_plain, grad_plain = plain.loss_and_grad(x, y)
    loss_reg, grad_reg = regularized.loss_and_grad(x, y)
    flat = plain.get_params()
    assert loss_reg == pytest.approx(loss_plain + 0.05 * float(flat @ flat))
    assert np.allclose(grad_reg, grad_plain + 0.1 * flat)


def test_vgg_lite_rejects_bad_image_size():
    with pytest.raises(ValueError):
        build_vgg_lite(np.random.default_rng(0), image_size=6)


def test_accuracy_multiclass():
    """Multi-class scores predict their argmax."""
    model = mlp(np.random.default_rng(5), 4, [], 3)
    model.set_params(np.concatenate([np.eye(3, 4).ravel(), np.zeros(3)]))
    x = np.random.default_rng(5).normal(size=(7, 4))  # scores: x[:, :3]
    y = np.argmax(x[:, :3], axis=1)
    assert model.evaluate(x, y)[1] == 1.0
    y[0] = (y[0] + 1) % 3
    assert model.evaluate(x, y)[1] == pytest.approx(6 / 7)


def test_accuracy_pm_labels():
    """A margin predicts class 1 above 0 and class 0 otherwise; ±1
    labels count as 0/1, and 0/1 labels as they are."""
    model = build_svm(np.random.default_rng(0), 2)
    model.set_params(np.array([1.0, 0.0, 0.0]))  # score: x[:, 0]
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
    assert model.evaluate(x, np.array([1, -1, 1]))[1] == 1.0
    assert model.evaluate(x, np.array([1, 0, 1]))[1] == 1.0
    assert model.evaluate(x, np.array([1, 1, 1]))[1] == pytest.approx(2 / 3)
    assert model.evaluate(x, np.array([-1, 1, -1]))[1] == 0.0


def test_training_reduces_loss_svm():
    rng = np.random.default_rng(6)
    data = synthetic_webspam(rng, n_train=512, n_test=128, n_features=32)
    model = build_svm(rng, 32)
    optimizer = SGD(lr=1.0, momentum=0.9, weight_decay=1e-7)
    batcher = Batcher(data.x_train, data.y_train, 64, rng)

    initial_loss = model.loss_value(data.x_test, data.y_test)
    for _ in range(60):
        xb, yb = batcher.next_batch()
        _, grad = model.loss_and_grad(xb, yb)
        model.set_params(
            model.get_params() + optimizer.step(model.get_params(), grad)
        )
    final_loss, acc = model.evaluate(data.x_test, data.y_test)
    assert final_loss < 0.6 * initial_loss
    assert acc > 0.8


def test_training_reduces_loss_cnn():
    rng = np.random.default_rng(7)
    data = synthetic_images(rng, n_train=512, n_test=128, image_size=8)
    model = build_vgg_lite(rng, image_size=8, base_filters=4, hidden=16)
    optimizer = SGD(lr=0.05, momentum=0.9, weight_decay=1e-4)
    batcher = Batcher(data.x_train, data.y_train, 64, rng)

    initial_loss = model.loss_value(data.x_test, data.y_test)
    for _ in range(80):
        xb, yb = batcher.next_batch()
        _, grad = model.loss_and_grad(xb, yb)
        model.set_params(
            model.get_params() + optimizer.step(model.get_params(), grad)
        )
    final_loss, acc = model.evaluate(data.x_test, data.y_test)
    assert final_loss < initial_loss
    assert acc > 0.3  # 10 classes, chance = 0.1


def test_evaluate_returns_loss_and_accuracy():
    rng = np.random.default_rng(8)
    model = build_svm(rng, 4)
    x = rng.normal(size=(20, 4))
    y = rng.integers(0, 2, size=20)
    loss, acc = model.evaluate(x, y)
    assert loss > 0
    assert 0.0 <= acc <= 1.0


def old_targets_of(y):
    """The replaced spelling: ``np.unique`` and a set comparison."""
    targets = np.asarray(y).ravel()
    if set(np.unique(targets)) <= {-1, 1}:
        targets = ((targets + 1) // 2).astype(int)
    return targets


@pytest.mark.parametrize(
    "labels",
    [
        [0, 1, 1, 0],
        [-1, 1, 1, -1],
        [0.0, 1.0, 1.0],
        [-1.0, 1.0, -1.0],
        [1, 1, 1],
        [-1, -1],
        [],
        [np.nan, 1.0, -1.0],
        [np.nan],
        [-1, 0, 1],
        [2, 1],
        [True, True],
    ],
    ids=lambda labels: repr(labels),
)
def test_evaluate_maps_labels_as_the_unique_spelling_did(labels):
    """``evaluate``'s label map without ``np.unique``: the same targets,
    value and dtype, for 0/1, ±1 (ints and floats), empty and NaN."""
    y = np.array(labels)
    got, expected = Model._targets_of(y), old_targets_of(y)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected, equal_nan=True)


class CountingIdentity(Layer):
    """Passes its input through; counts the forward passes it sees."""

    def __init__(self):
        self.forwards = 0

    def forward(self, x, training=True):
        self.forwards += 1
        return x

    def backward(self, dout):
        return dout


@pytest.mark.parametrize("l2", [0.0, 0.1])
@pytest.mark.parametrize("build", ["softmax", "logistic"])
def test_evaluate_runs_the_network_once(build, l2):
    """One forward per ``evaluate`` (it used to be two: ``loss_value``,
    then the predictions), and the pair it returns is exactly the pair
    two separate passes give."""
    rng = np.random.default_rng(9)
    if build == "softmax":
        model = mlp(rng, 6, [5], 3)
        y = rng.integers(0, 3, size=40)
    else:
        model = build_svm(rng, 6)
        y = rng.choice([-1, 1], size=40)
    model.l2 = l2
    counter = CountingIdentity()
    model.network.layers.insert(0, counter)
    x = rng.normal(size=(40, 6))

    loss, accuracy = model.evaluate(x, y)
    assert counter.forwards == 1
    assert loss == model.loss_value(x, y)
    scores = model.network.forward(x, training=False)
    if build == "logistic":
        predictions, targets = scores.ravel() > 0, (y + 1) // 2
    else:
        predictions, targets = np.argmax(scores, axis=1), y
    assert accuracy == float(np.mean(predictions == targets))
    assert counter.forwards == 3
