"""Layer tests: shapes, semantics, and numerical gradient checks."""

import numpy as np
import pytest

from repro.ml import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    numerical_gradient,
    relative_error,
)


RNG = lambda: np.random.default_rng(42)  # noqa: E731 - test brevity


@pytest.mark.parametrize(
    "layer",
    [ReLU(), Flatten(), Conv2D(2, 3, 3, RNG(), pad=1), MaxPool2D(2)],
    ids=lambda layer: type(layer).__name__,
)
def test_backward_before_any_forward_raises(layer):
    with pytest.raises(RuntimeError, match="backward"):
        layer.backward(np.ones((2, 3, 4, 4)))


def layer_input_gradcheck(layer, x, tol=1e-6):
    """Check d(sum(forward(x)))/dx against central differences."""
    out = layer.forward(x.copy(), training=True)
    dx = layer.backward(np.ones_like(out))

    def f(x_flat):
        return float(np.sum(layer.forward(x_flat, training=True)))

    numeric = numerical_gradient(f, x.copy())
    assert relative_error(dx, numeric) < tol


def layer_param_gradcheck(layer, x, tol=1e-6):
    """Check parameter gradients against central differences."""
    for p in layer.parameters():
        p.zero_grad()
    out = layer.forward(x, training=True)
    layer.backward(np.ones_like(out))
    for p in layer.parameters():
        analytic = p.grad.copy()
        data = p.data

        def f(_):
            return float(np.sum(layer.forward(x, training=True)))

        numeric = numerical_gradient(lambda _: f(None), data)
        assert relative_error(analytic, numeric) < tol, p.name


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, RNG())
        out = layer.forward(np.ones((2, 4)))
        assert out.shape == (2, 3)

    def test_forward_values(self):
        layer = Dense(2, 1, RNG())
        layer.W.data[...] = [[2.0, -1.0]]
        layer.b.data[...] = [0.5]
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert out[0, 0] == pytest.approx(1.5)

    def test_input_gradient(self):
        layer = Dense(5, 4, RNG())
        layer_input_gradcheck(layer, RNG().normal(size=(3, 5)))

    def test_param_gradients(self):
        layer = Dense(5, 4, RNG())
        layer_param_gradcheck(layer, RNG().normal(size=(3, 5)))

    def test_wrong_input_shape_rejected(self):
        layer = Dense(4, 3, RNG())
        with pytest.raises(ValueError):
            layer.forward(np.ones((2, 7)))

    def test_backward_before_forward_raises(self):
        layer = Dense(4, 3, RNG())
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 3)))


class TestReLU:
    def test_forward_clips_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_gradient_masks_negatives(self):
        layer = ReLU()
        x = np.array([[-1.0, 3.0]])
        layer.forward(x, training=True)
        dx = layer.backward(np.array([[5.0, 5.0]]))
        assert np.array_equal(dx, [[0.0, 5.0]])

    def test_input_gradcheck(self):
        x = RNG().normal(size=(4, 6)) + 0.1  # avoid kink at exactly 0
        layer_input_gradcheck(ReLU(), x)


class TestFlatten:
    def test_round_trip(self):
        layer = Flatten()
        x = RNG().normal(size=(2, 3, 4, 4))
        out = layer.forward(x)
        assert out.shape == (2, 48)
        back = layer.backward(out)
        assert np.array_equal(back, x)


class TestConv2D:
    def test_output_shape_with_padding(self):
        layer = Conv2D(3, 5, 3, RNG(), pad=1)
        out = layer.forward(RNG().normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 5, 8, 8)

    def test_output_shape_stride(self):
        layer = Conv2D(1, 2, 3, RNG(), stride=2, pad=1)
        out = layer.forward(RNG().normal(size=(1, 1, 8, 8)))
        assert out.shape == (1, 2, 4, 4)

    def test_identity_kernel(self):
        layer = Conv2D(1, 1, 1, RNG())
        layer.W.data[...] = 1.0
        layer.b.data[...] = 0.0
        x = RNG().normal(size=(1, 1, 4, 4))
        assert np.allclose(layer.forward(x), x)

    def test_matches_naive_convolution(self):
        rng = RNG()
        layer = Conv2D(2, 3, 3, rng, pad=1)
        x = rng.normal(size=(2, 2, 5, 5))
        out = layer.forward(x)

        x_pad = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        naive = np.zeros_like(out)
        for n in range(2):
            for f in range(3):
                for i in range(5):
                    for j in range(5):
                        patch = x_pad[n, :, i : i + 3, j : j + 3]
                        naive[n, f, i, j] = (
                            np.sum(patch * layer.W.data[f]) + layer.b.data[f]
                        )
        assert np.allclose(out, naive)

    def test_input_gradient(self):
        layer = Conv2D(2, 3, 3, RNG(), pad=1)
        layer_input_gradcheck(layer, RNG().normal(size=(2, 2, 4, 4)), tol=1e-5)

    def test_param_gradients(self):
        layer = Conv2D(2, 3, 3, RNG(), pad=1)
        layer_param_gradcheck(layer, RNG().normal(size=(2, 2, 4, 4)), tol=1e-5)

    def test_wrong_channels_rejected(self):
        layer = Conv2D(3, 2, 3, RNG())
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 2, 8, 8)))


class TestMaxPool2D:
    def test_forward_picks_maxima(self):
        layer = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        assert np.array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_backward_routes_to_argmax(self):
        layer = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer.forward(x, training=True)
        dx = layer.backward(np.ones((1, 1, 2, 2)))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        assert np.array_equal(dx[0, 0], expected)

    def test_gradcheck(self):
        x = RNG().normal(size=(2, 2, 4, 4))
        # Perturb duplicates away so argmax is stable under +-eps.
        x += np.linspace(0, 0.01, x.size).reshape(x.shape)
        layer_input_gradcheck(MaxPool2D(2), x, tol=1e-5)

    def test_indivisible_input_rejected(self):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.ones((1, 1, 5, 5)))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            MaxPool2D(0)

    def test_tie_gradient_goes_to_single_cell(self):
        layer = MaxPool2D(2)
        x = np.ones((1, 1, 2, 2))
        layer.forward(x, training=True)
        dx = layer.backward(np.ones((1, 1, 1, 1)))
        assert dx.sum() == 1.0
