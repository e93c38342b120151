"""Tests for the optimizer, datasets, batching, and metrics."""

import numpy as np
import pytest

from repro.ml import (
    SGD,
    Batcher,
    smooth_series,
    synthetic_images,
    synthetic_webspam,
)


class TestSGD:
    def test_plain_step_is_negative_lr_grad(self):
        sgd = SGD(lr=0.5)
        delta = sgd.step(np.zeros(3), np.array([1.0, -2.0, 0.0]))
        assert np.allclose(delta, [-0.5, 1.0, 0.0])

    def test_the_rate_is_one_number(self):
        """No step depends on when it is taken: a trailing iteration
        (the one ``bench/layers.py`` passes) is ignored."""
        sgd = SGD(lr=0.5)
        assert sgd.lr == 0.5
        grad = np.array([1.0, -2.0])
        assert sgd.step(np.zeros(2), grad, 1000).tobytes() == sgd.step(
            np.zeros(2), grad
        ).tobytes()

    def test_momentum_accumulates(self):
        sgd = SGD(lr=1.0, momentum=0.9)
        grad = np.array([1.0])
        first = sgd.step(np.zeros(1), grad)
        second = sgd.step(np.zeros(1), grad)
        assert first[0] == pytest.approx(-1.0)
        assert second[0] == pytest.approx(-1.9)

    def test_weight_decay_pulls_toward_zero(self):
        sgd = SGD(lr=1.0, weight_decay=0.1)
        delta = sgd.step(np.array([10.0]), np.zeros(1))
        assert delta[0] == pytest.approx(-1.0)

    def test_clone_has_fresh_state(self):
        sgd = SGD(lr=1.0, momentum=0.9)
        sgd.step(np.zeros(1), np.array([1.0]))
        clone = sgd.clone()
        delta = clone.step(np.zeros(1), np.array([1.0]))
        assert delta[0] == pytest.approx(-1.0)
        assert repr(clone) == repr(sgd)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_step_rows_equals_each_rows_own_step(
        self, momentum, weight_decay, dtype
    ):
        """Row ``r`` of a block step is bit for bit worker ``r``'s own
        ``step``, over several steps of one velocity block."""
        rng = np.random.default_rng(5)
        rows, dim = 3, 7
        block = SGD(lr=0.3, momentum=momentum, weight_decay=weight_decay)
        own = [block.clone() for _ in range(rows)]
        velocity = np.zeros((rows, dim)) if momentum else None
        for _ in range(3):
            params = rng.normal(size=(rows, dim)).astype(dtype)
            grads = rng.normal(size=(rows, dim)).astype(dtype)
            deltas = block.step_rows(params, grads, velocity)
            for r, sgd in enumerate(own):
                assert deltas[r].tobytes() == sgd.step(params[r], grads[r]).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD(lr=1.0, momentum=1.0)
        with pytest.raises(ValueError):
            SGD(lr=1.0, weight_decay=-0.1)
        with pytest.raises(ValueError):
            SGD(lr=0.0)


class TestDatasets:
    def test_synthetic_images_shapes(self):
        data = synthetic_images(
            np.random.default_rng(0), n_train=100, n_test=20, image_size=8
        )
        assert data.x_train.shape == (100, 3, 8, 8)
        assert data.y_train.shape == (100,)
        assert data.n_test == 20

    def test_synthetic_images_learnable(self):
        """Nearest-template classification must beat chance by a lot."""
        rng = np.random.default_rng(1)
        data = synthetic_images(rng, n_train=400, n_test=100, noise=0.5)
        # Estimate class means from train, classify test by nearest mean.
        means = np.stack(
            [
                data.x_train[data.y_train == c].mean(axis=0)
                for c in range(10)
            ]
        )
        flat_test = data.x_test.reshape(len(data.x_test), -1)
        flat_means = means.reshape(10, -1)
        d2 = ((flat_test[:, None, :] - flat_means[None, :, :]) ** 2).sum(-1)
        predictions = d2.argmin(axis=1)
        assert np.mean(predictions == data.y_test) > 0.5

    def test_synthetic_webspam_separable(self):
        data = synthetic_webspam(
            np.random.default_rng(2), n_train=500, n_test=100
        )
        assert set(np.unique(data.y_train)) <= {0, 1}
        # Features are sparse-ish.
        assert np.mean(data.x_train == 0) > 0.5

    def test_dataset_validation(self):
        from repro.ml import Dataset

        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2), np.zeros((1, 2)), np.zeros(1), "bad")

    def test_determinism(self):
        a = synthetic_webspam(np.random.default_rng(3), n_train=50, n_test=10)
        b = synthetic_webspam(np.random.default_rng(3), n_train=50, n_test=10)
        assert np.array_equal(a.x_train, b.x_train)


class TestBatcher:
    def test_batch_shapes(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(100, 4)), rng.integers(0, 2, 100)
        batcher = Batcher(x, y, 32, rng)
        xb, yb = batcher.next_batch()
        assert xb.shape == (32, 4)
        assert yb.shape == (32,)

    def test_different_streams_different_batches(self):
        x = np.arange(1000, dtype=float).reshape(100, 10)
        y = np.zeros(100, dtype=int)
        b1 = Batcher(x, y, 16, np.random.default_rng(1))
        b2 = Batcher(x, y, 16, np.random.default_rng(2))
        assert not np.array_equal(b1.next_batch()[0], b2.next_batch()[0])

    def test_validation(self):
        x, y = np.zeros((10, 2)), np.zeros(10)
        with pytest.raises(ValueError):
            Batcher(x, y, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            Batcher(x, y, 11, np.random.default_rng(0))
        with pytest.raises(ValueError):
            Batcher(x, np.zeros(9), 2, np.random.default_rng(0))


class TestMetrics:
    def test_smooth_series_constant_preserved(self):
        values = np.full(10, 3.0)
        assert np.allclose(smooth_series(values, 4), 3.0)

    def test_smooth_series_length_preserved(self):
        values = np.random.default_rng(0).normal(size=17)
        assert smooth_series(values, 5).shape == values.shape

    def test_smooth_window_one_is_identity(self):
        values = np.array([1.0, 5.0, 2.0])
        assert np.array_equal(smooth_series(values, 1), values)
