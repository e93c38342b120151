"""Tests for optimizers, schedules, datasets, batching, and params."""

import numpy as np
import pytest

from repro.ml import (
    SGD,
    Batcher,
    ConstantLR,
    Parameter,
    StepDecayLR,
    accuracy,
    shard_dataset,
    smooth_series,
    synthetic_images,
    synthetic_webspam,
    total_size,
)


class TestSGD:
    def test_plain_step_is_negative_lr_grad(self):
        sgd = SGD(lr=0.5)
        delta = sgd.step(np.zeros(3), np.array([1.0, -2.0, 0.0]))
        assert np.allclose(delta, [-0.5, 1.0, 0.0])

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

    def test_reset_clears_momentum(self):
        sgd = SGD(lr=1.0, momentum=0.9)
        sgd.step(np.zeros(1), np.array([1.0]))
        sgd.reset()
        delta = sgd.step(np.zeros(1), np.array([1.0]))
        assert delta[0] == pytest.approx(-1.0)

    def test_clone_has_fresh_state(self):
        sgd = SGD(lr=1.0, momentum=0.9)
        sgd.step(np.zeros(1), np.array([1.0]))
        clone = sgd.clone()
        delta = clone.step(np.zeros(1), np.array([1.0]))
        assert delta[0] == pytest.approx(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD(lr=1.0, momentum=1.0)
        with pytest.raises(ValueError):
            SGD(lr=1.0, weight_decay=-0.1)
        with pytest.raises(ValueError):
            ConstantLR(0.0)


class TestSchedules:
    def test_constant(self):
        schedule = ConstantLR(0.1)
        assert schedule(0) == schedule(1000) == 0.1

    def test_step_decay(self):
        schedule = StepDecayLR(1.0, step_size=10, gamma=0.1)
        assert schedule(0) == 1.0
        assert schedule(9) == 1.0
        assert schedule(10) == pytest.approx(0.1)
        assert schedule(20) == pytest.approx(0.01)

    def test_step_decay_validation(self):
        with pytest.raises(ValueError):
            StepDecayLR(1.0, step_size=0)

    def test_sgd_uses_schedule(self):
        sgd = SGD(lr=1.0, schedule=StepDecayLR(1.0, step_size=5))
        early = sgd.step(np.zeros(1), np.ones(1), iteration=0)
        late = sgd.step(np.zeros(1), np.ones(1), iteration=5)
        assert abs(late[0]) < abs(early[0])


class TestParams:
    def test_total_size(self):
        params = [Parameter(np.zeros((2, 3)), "a"), Parameter(np.zeros(5), "b")]
        assert total_size(params) == 11


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
        assert accuracy(predictions, data.y_test) > 0.5

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


class TestSharding:
    def test_shards_cover_dataset(self):
        data = synthetic_webspam(
            np.random.default_rng(4), n_train=100, n_test=10
        )
        total = sum(len(shard_dataset(data, 3, s)[0]) for s in range(3))
        assert total == 100

    def test_last_shard_takes_remainder(self):
        data = synthetic_webspam(
            np.random.default_rng(5), n_train=101, n_test=10
        )
        assert len(shard_dataset(data, 4, 3)[0]) == 101 - 3 * 25

    def test_out_of_range_shard(self):
        data = synthetic_webspam(np.random.default_rng(6), n_train=20, n_test=5)
        with pytest.raises(ValueError):
            shard_dataset(data, 4, 4)


class TestMetrics:
    def test_accuracy_basic(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(
            2 / 3
        )

    def test_accuracy_pm_labels(self):
        assert accuracy(np.array([1, 0]), np.array([1, -1])) == 1.0

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(3), np.zeros(4))

    def test_smooth_series_constant_preserved(self):
        values = np.full(10, 3.0)
        assert np.allclose(smooth_series(values, 4), 3.0)

    def test_smooth_series_length_preserved(self):
        values = np.random.default_rng(0).normal(size=17)
        assert smooth_series(values, 5).shape == values.shape

    def test_smooth_window_one_is_identity(self):
        values = np.array([1.0, 5.0, 2.0])
        assert np.array_equal(smooth_series(values, 1), values)
