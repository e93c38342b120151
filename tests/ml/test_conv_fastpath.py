"""Parity suite: the conv/pool fast paths vs the reference kernels.

The fast implementations in ``repro.ml.layers`` (cached im2col plan,
sparse-matvec col2im, contiguous-plane 2x2 and flat-gather pooling)
must reproduce the seed implementations preserved in
``repro.ml.reference`` across stride/pad/dtype combinations, and must
agree with central-difference numerical gradients.
"""

import numpy as np
import pytest

from repro.ml.gradcheck import numerical_gradient, relative_error
from repro.ml.layers import Conv2D, Dropout, MaxPool2D, _conv_plan
from repro.ml.reference import (
    conv2d_backward_reference,
    conv2d_forward_reference,
    maxpool_backward_reference,
    maxpool_forward_reference,
)


def RNG(seed=0):
    return np.random.default_rng(seed)


def make_conv(c, f, k, stride, pad, dtype):
    layer = Conv2D(c, f, k, RNG(7), stride=stride, pad=pad)
    layer.W.data = layer.W.data.astype(dtype)
    layer.W.grad = np.zeros_like(layer.W.data)
    layer.b.data = layer.b.data.astype(dtype)
    layer.b.grad = np.zeros_like(layer.b.data)
    return layer

CONV_CONFIGS = [
    # (n, c, h, filters, k, stride, pad)
    (2, 3, 8, 4, 3, 1, 1),     # the VGG-lite block shape
    (4, 4, 4, 8, 3, 1, 1),     # second block shape
    (2, 3, 9, 5, 3, 2, 1),     # strided
    (2, 2, 7, 3, 2, 1, 0),     # even kernel, no padding
    (3, 2, 11, 4, 3, 2, 2),    # stride + wide padding
    (1, 1, 5, 1, 5, 1, 0),     # kernel covers the whole input
    (2, 3, 6, 2, 3, 3, 1),     # stride > kernel//2
]


def tolerance(dtype):
    return dict(rtol=1e-4, atol=1e-4) if dtype == np.float32 else dict(
        rtol=1e-10, atol=1e-12
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("config", CONV_CONFIGS)
class TestConvParity:
    def test_forward_matches_reference(self, config, dtype):
        n, c, h, f, k, stride, pad = config
        layer = make_conv(c, f, k, stride, pad, dtype)
        x = RNG(1).normal(size=(n, c, h, h)).astype(dtype)
        out = layer.forward(x)
        ref = conv2d_forward_reference(
            x.astype(np.float64),
            layer.W.data.astype(np.float64),
            layer.b.data.astype(np.float64),
            stride,
            pad,
        )
        assert out.shape == ref.shape
        assert np.allclose(out, ref, **tolerance(dtype))

    def test_backward_matches_reference(self, config, dtype):
        n, c, h, f, k, stride, pad = config
        layer = make_conv(c, f, k, stride, pad, dtype)
        x = RNG(1).normal(size=(n, c, h, h)).astype(dtype)
        out = layer.forward(x, training=True)
        dout = RNG(2).normal(size=out.shape).astype(dtype)
        dx = layer.backward(dout)
        ref_dx, ref_dw, ref_db = conv2d_backward_reference(
            x.astype(np.float64),
            layer.W.data.astype(np.float64),
            dout.astype(np.float64),
            stride,
            pad,
        )
        tol = tolerance(dtype)
        assert dx.shape == x.shape
        assert np.allclose(dx, ref_dx, **tol)
        assert np.allclose(layer.W.grad, ref_dw, **tol)
        assert np.allclose(layer.b.grad, ref_db, **tol)


class TestConvFastPathDetails:
    def test_float64_parity_is_tight(self):
        """In float64 the fast path matches the reference to ~1 ulp."""
        layer = make_conv(3, 4, 3, 1, 1, np.float64)
        x = RNG(3).normal(size=(4, 3, 8, 8))
        out = layer.forward(x, training=True)
        dout = RNG(4).normal(size=out.shape)
        dx = layer.backward(dout)
        ref_out = conv2d_forward_reference(
            x, layer.W.data, layer.b.data, 1, 1
        )
        ref_dx, ref_dw, ref_db = conv2d_backward_reference(
            x, layer.W.data, dout, 1, 1
        )
        assert relative_error(out, ref_out) < 1e-12
        assert relative_error(dx, ref_dx) < 1e-10
        assert relative_error(layer.W.grad, ref_dw) < 1e-10
        assert relative_error(layer.b.grad, ref_db) < 1e-12

    def test_numerical_gradient_wrt_input(self):
        layer = make_conv(2, 3, 3, 1, 1, np.float64)
        x = RNG(5).normal(size=(2, 2, 5, 5))
        projection = RNG(6).normal(size=layer.forward(x).shape)

        def loss(x_val):
            return float(np.sum(layer.forward(x_val) * projection))

        layer.forward(x, training=True)
        dx = layer.backward(projection)
        numeric = numerical_gradient(loss, x.copy())
        assert relative_error(dx, numeric) < 1e-6

    def test_numerical_gradient_wrt_weights(self):
        layer = make_conv(2, 3, 3, 2, 1, np.float64)
        x = RNG(5).normal(size=(2, 2, 6, 6))
        projection = RNG(6).normal(size=layer.forward(x).shape)

        def loss(w_val):
            layer.W.data = w_val
            return float(np.sum(layer.forward(x) * projection))

        layer.forward(x, training=True)
        layer.backward(projection)
        analytic = layer.W.grad.copy()
        numeric = numerical_gradient(loss, layer.W.data.copy())
        assert relative_error(analytic, numeric) < 1e-6

    def test_plan_is_cached_per_shape(self):
        _conv_plan.cache_clear()
        layer = make_conv(3, 4, 3, 1, 1, np.float64)
        x = RNG(0).normal(size=(2, 3, 8, 8))
        for _ in range(3):
            layer.forward(x, training=True)
            layer.backward(RNG(1).normal(size=(2, 4, 8, 8)))
        info = _conv_plan.cache_info()
        assert info.misses == 1
        assert info.hits >= 2

    def test_dtype_honored_end_to_end(self):
        layer = make_conv(3, 4, 3, 1, 1, np.float32)
        x = RNG(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
        out = layer.forward(x, training=True)
        dx = layer.backward(out)
        assert out.dtype == np.float32
        assert dx.dtype == np.float32
        assert layer.W.grad.dtype == np.float32
        assert layer.b.grad.dtype == np.float32


class TestMaxPoolParity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape,size", [
        ((2, 3, 8, 8), 2),
        ((3, 2, 9, 9), 3),
        ((1, 1, 4, 4), 4),
    ])
    def test_forward_backward_match_reference(self, shape, size, dtype):
        layer = MaxPool2D(size)
        x = RNG(1).normal(size=shape).astype(dtype)
        out = layer.forward(x, training=True)
        ref_out, mask = maxpool_forward_reference(x, size)
        assert np.array_equal(out, ref_out)
        dout = RNG(2).normal(size=out.shape).astype(dtype)
        dx = layer.backward(dout)
        ref_dx = maxpool_backward_reference(dout, shape, mask, size)
        assert dx.dtype == dtype
        assert np.allclose(dx, ref_dx, **tolerance(dtype))

    def test_ties_route_gradient_to_first_max_only(self):
        """Constant windows: only the first position gets gradient."""
        layer = MaxPool2D(2)
        x = np.ones((1, 1, 4, 4))
        out = layer.forward(x, training=True)
        dx = layer.backward(np.ones_like(out))
        ref_out, mask = maxpool_forward_reference(x, 2)
        ref_dx = maxpool_backward_reference(np.ones_like(ref_out), x.shape, mask, 2)
        assert np.array_equal(dx, ref_dx)
        # exactly one gradient entry per window
        assert dx.sum() == out.size
        assert ((dx == 0) | (dx == 1)).all()

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("position", range(16))
    def test_nan_propagates_from_every_window_position(
        self, position, training
    ):
        """A NaN is the max of its window wherever it sits: a diverged
        run reports NaN, not the largest finite neighbour.  (The 2x2
        where-tree compared with ``>``, which is False against NaN, and
        returned 3.0 for ``[[1, nan], [2, 3]]``.)"""
        x = RNG(8).normal(size=(2, 1, 4, 4)).astype(np.float32)
        x[1].flat[position] = np.nan
        out = MaxPool2D(2).forward(x, training=training)
        ref_out, _ = maxpool_forward_reference(x, 2)
        assert np.isnan(ref_out).sum() == 1
        assert np.array_equal(out, ref_out, equal_nan=True)
        generic = MaxPool2D(4).forward(x, training=training)
        assert np.isnan(generic[1]).all() and not np.isnan(generic[0]).any()

    def test_numerical_gradient(self):
        layer = MaxPool2D(2)
        x = RNG(3).normal(size=(2, 2, 4, 4))
        projection = RNG(4).normal(size=(2, 2, 2, 2))

        def loss(x_val):
            return float(np.sum(layer.forward(x_val) * projection))

        layer.forward(x, training=True)
        dx = layer.backward(projection)
        numeric = numerical_gradient(loss, x.copy())
        assert relative_error(dx, numeric) < 1e-6


class TestDropoutGuard:
    def test_backward_before_any_forward_raises(self):
        layer = Dropout(0.5, RNG())
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 2)))

    def test_backward_after_eval_forward_raises(self):
        layer = Dropout(0.5, RNG())
        layer.forward(np.ones((2, 2)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 2)))

    def test_rate_zero_training_backward_is_identity(self):
        layer = Dropout(0.0, RNG())
        x = RNG(1).normal(size=(3, 3))
        layer.forward(x, training=True)
        dout = RNG(2).normal(size=(3, 3))
        assert np.array_equal(layer.backward(dout), dout)

    def test_eval_after_training_invalidates_mask(self):
        layer = Dropout(0.5, RNG())
        layer.forward(np.ones((2, 2)), training=True)
        layer.forward(np.ones((2, 2)), training=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 2)))
