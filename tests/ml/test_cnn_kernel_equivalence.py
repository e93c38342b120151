"""The contiguous-plane pool, the interior-only col2im and the unpadded
im2col plan against the three kernels they replaced.

``OldMaxPool2D`` and ``OldConv2D`` are the removed implementations (the
where-tree over strided window views with an int64 ``first``, the
zero-filled padded buffer behind a padded-coordinate plan, the full
padded col2im operator whose border backward sliced away), kept here as
oracles.  The new kernels only move data differently, so every
comparison is on bits (``.view(uint32 / uint64)``), never ``allclose``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.harness.workloads import cnn_workload
from repro.ml.layers import Conv2D, MaxPool2D, _pool_scatter_base


def bits(array):
    array = np.ascontiguousarray(array)
    return array.view({4: np.uint32, 8: np.uint64}[array.dtype.itemsize])


def assert_same_bits(new, old):
    assert new.shape == old.shape and new.dtype == old.dtype
    assert np.array_equal(bits(new), bits(old))


class OldMaxPool2D(MaxPool2D):
    """The removed 2 x 2 kernel (the generic path never changed)."""

    def forward(self, x, training=True):
        n, c, h, w = x.shape
        assert self.size == 2
        r = x.reshape(n, c, h // 2, 2, w // 2, 2)
        w00 = r[:, :, :, 0, :, 0]
        w01 = r[:, :, :, 0, :, 1]
        w10 = r[:, :, :, 1, :, 0]
        w11 = r[:, :, :, 1, :, 1]
        top_right = w01 > w00
        top = np.where(top_right, w01, w00)
        bottom_right = w11 > w10
        bottom = np.where(bottom_right, w11, w10)
        bottom_wins = bottom > top
        out = np.where(bottom_wins, bottom, top)
        self._cache = None
        if training:
            first = np.where(bottom_wins, bottom_right + 2, top_right + 0)
            self._cache = (x.shape, first)
        return out

    def backward(self, dout):
        (x_shape, first), self._cache = self._cache, None
        n, c, h, w = x_shape
        s = self.size
        dx = np.zeros(n * c * h * w, dtype=dout.dtype)
        base = _pool_scatter_base(x_shape, s)
        dx[base + (first // s) * w + first % s] = dout
        return dx.reshape(n, c, h, w)


def old_conv_plan(x_shape, kh, kw, stride, pad):
    """The removed plan: flat indices into the *padded* input."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    i0 = np.tile(np.repeat(np.arange(kh), kw), c)
    j0 = np.tile(np.arange(kw), kh * c)
    k0 = np.repeat(np.arange(c), kh * kw)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    within = (k0[:, None] * hp + i0[:, None] + i1[None, :]) * wp
    within += j0[:, None] + j1[None, :]
    offsets = np.arange(n) * (c * hp * wp)
    indices = (within[:, None, :] + offsets[None, :, None]).ravel()
    return out_h, out_w, indices


class OldConv2D(Conv2D):
    """The removed kernels: padded buffer, bias temporary, a col2im
    operator with one row per padded pixel and a slice on the way out."""

    def forward(self, x, training=True):
        n, c, h, w = x.shape
        k, stride, pad = self.kernel_size, self.stride, self.pad
        out_h, out_w, plan = old_conv_plan(x.shape, k, k, stride, pad)
        if pad:
            x_pad = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
            x_pad[:, :, pad : h + pad, pad : w + pad] = x
        else:
            x_pad = np.ascontiguousarray(x)
        cols = x_pad.ravel()[plan].reshape(c * k * k, n * out_h * out_w)
        W_row = self.W.data.reshape(self.out_channels, -1)
        out = W_row @ cols + self.b.data.reshape(-1, 1)
        out = out.reshape(self.out_channels, n, out_h, out_w)
        self._cache = (x.shape, x.dtype, cols) if training else None
        return out.transpose(1, 0, 2, 3)

    def backward(self, dout, need_input_grad=True):
        (x_shape, x_dtype, cols), self._cache = self._cache, None
        n, c, h, w = x_shape
        k, pad = self.kernel_size, self.pad
        dout_mat = dout.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        self.b.grad += dout_mat.sum(axis=1)
        self.W.grad += (dout_mat @ cols.T).reshape(self.W.shape)
        if not need_input_grad:
            return None
        dcols = self.W.data.reshape(self.out_channels, -1).T @ dout_mat
        hp, wp = h + 2 * pad, w + 2 * pad
        _, _, plan = old_conv_plan(x_shape, k, k, self.stride, pad)
        nnz = plan.size
        operator = sparse.csr_matrix(
            (np.ones(nnz, dtype=np.float32), (plan, np.arange(nnz))),
            shape=(n * c * hp * wp, nnz),
        )
        dx_pad = operator @ dcols.ravel()
        dx_pad = dx_pad.reshape(n, c, hp, wp).astype(x_dtype, copy=False)
        if pad:
            return dx_pad[:, :, pad:-pad, pad:-pad]
        return dx_pad


def with_old_kernels(model):
    """Swap the removed kernels into ``model``'s layers, in place."""
    for layer in model.network.layers:
        if type(layer) is Conv2D:
            layer.__class__ = OldConv2D
        elif type(layer) is MaxPool2D:
            layer.__class__ = OldMaxPool2D
    return model


def conv_successor_view(values):
    """``values`` (n, c, h, w) laid out the way a conv hands its output
    on: a ``(c, n, h, w)`` buffer seen through ``transpose(1, 0, 2, 3)``."""
    view = np.ascontiguousarray(values.transpose(1, 0, 2, 3)).transpose(
        1, 0, 2, 3
    )
    assert view.shape == values.shape
    assert values.shape[0] == 1 or values.shape[1] == 1 or (
        not view.flags.c_contiguous
    )
    return view


def pool_both(x, dout):
    new, old = MaxPool2D(2), OldMaxPool2D(2)
    out, ref_out = new.forward(x, training=True), old.forward(x, training=True)
    first, ref_first = new._cache[1], old._cache[1]
    return (
        (out, first, new.backward(dout)),
        (ref_out, ref_first, old.backward(dout)),
    )


@st.composite
def pool_inputs(draw):
    n = draw(st.integers(1, 5))
    c = draw(st.integers(1, 4))
    h = 2 * draw(st.integers(1, 4))
    w = 2 * draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.normal(size=(n, c, h, w))
    else:
        # A handful of values, both zeros among them: ties everywhere.
        x = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(n, c, h, w))
    x = x.astype(dtype)
    dout = rng.normal(size=(n, c, h // 2, w // 2)).astype(dtype)
    if draw(st.booleans()):
        x, dout = conv_successor_view(x), conv_successor_view(dout)
    return x, dout


class TestPoolEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(pool_inputs())
    def test_out_first_and_dx_are_exact(self, inputs):
        x, dout = inputs
        (out, first, dx), (ref_out, ref_first, ref_dx) = pool_both(x, dout)
        assert_same_bits(out, ref_out)
        assert first.dtype == np.uint8 and ref_first.dtype == np.int64
        assert first.shape == ref_first.shape
        assert np.array_equal(first, ref_first)
        assert_same_bits(dx, ref_dx)
        assert dx.flags.c_contiguous

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_256_signed_zero_and_tie_windows(self, dtype):
        """Every 2 x 2 window over {-0.0, +0.0, 1, -1}: which element a
        tie keeps decides the sign of a zero and where the gradient
        goes.  Prefixes of every length up to 33 windows as well, so a
        SIMD body and its scalar tail both face each kind of tie."""
        windows = np.array(
            list(itertools.product([-0.0, 0.0, 1.0, -1.0], repeat=4)),
            dtype=dtype,
        ).reshape(256, 1, 2, 2)
        dout = np.arange(1.0, 257.0, dtype=dtype).reshape(256, 1, 1, 1)
        for stop in [*range(1, 34), 256]:
            for start in (0, 256 - stop):
                x = windows[start : start + stop]
                new, old = pool_both(x, dout[start : start + stop])
                for got, expected in zip(new, old):
                    assert np.array_equal(got, expected)
                assert_same_bits(new[0], old[0])  # the sign of a zero
                assert_same_bits(new[2], old[2])

    def test_eval_forward_is_exact_and_caches_nothing(self):
        x = np.random.default_rng(0).normal(size=(3, 2, 4, 6))
        new, old = MaxPool2D(2), OldMaxPool2D(2)
        assert_same_bits(
            new.forward(x, training=False), old.forward(x, training=False)
        )
        assert new._cache is None

    def test_generic_size_backward_is_unchanged(self):
        """``s != 2`` still goes through ``argmax``; only its scatter
        index is spelled through the offset table now."""
        rng = np.random.default_rng(1)
        x = rng.integers(-2, 3, size=(2, 3, 9, 6)).astype(np.float32)
        layer = MaxPool2D(3)
        out = layer.forward(x, training=True)
        first = layer._cache[1]
        dout = rng.normal(size=out.shape).astype(np.float32)
        dx = layer.backward(dout)
        expected = np.zeros(x.size, dtype=np.float32)
        base = _pool_scatter_base(x.shape, 3)
        expected[base + (first // 3) * 6 + first % 3] = dout
        assert_same_bits(dx, expected.reshape(x.shape))


def conv_pair(c, filters, k, stride, pad, dtype):
    layers = []
    for cls in (Conv2D, OldConv2D):
        layer = cls(c, filters, k, np.random.default_rng(7), stride, pad)
        for p in layer.parameters():
            p.data = p.data.astype(dtype)
            p.grad = np.zeros_like(p.data)
        layer.b.data += np.arange(filters, dtype=dtype) / 8
        layers.append(layer)
    return layers


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("contiguous", [True, False], ids=["c", "cnhw"])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_conv_forward_and_both_gradients_are_exact(
    k, stride, pad, contiguous, dtype
):
    new, old = conv_pair(3, 4, k, stride, pad, dtype)
    rng = np.random.default_rng(k + 10 * stride + 100 * pad)
    x = rng.normal(size=(3, 3, 6, 8)).astype(dtype)
    if not contiguous:
        x = conv_successor_view(x)
    out, ref_out = new.forward(x, training=True), old.forward(x, training=True)
    assert_same_bits(out, ref_out)
    assert out.strides == ref_out.strides
    assert_same_bits(new._cache[2], old._cache[2])  # im2col columns
    dout = rng.normal(size=out.shape).astype(dtype)
    if not contiguous:
        dout = conv_successor_view(dout)
    dx, ref_dx = new.backward(dout), old.backward(dout)
    assert_same_bits(dx, ref_dx)
    assert dx.flags.c_contiguous
    assert_same_bits(new.W.grad, old.W.grad)
    assert_same_bits(new.b.grad, old.b.grad)
    # Evaluation forward, then the first-layer form of backward.
    assert_same_bits(
        new.forward(x, training=False), old.forward(x, training=False)
    )
    assert new._cache is None
    for layer in (new, old):
        layer.forward(x, training=True)
        assert layer.backward(dout, need_input_grad=False) is None
    assert_same_bits(new.W.grad, old.W.grad)


@pytest.mark.parametrize("preset", ["smoke", "bench", "paper"])
def test_vgg_lite_gradients_are_exact_for_20_sgd_steps(preset):
    """The whole step, at each workload size, along a real trajectory:
    20 momentum-SGD steps, flat gradient bytes equal at every one."""
    workload = cnn_workload(preset)
    new = workload.model_factory(np.random.default_rng(3))
    old = with_old_kernels(workload.model_factory(np.random.default_rng(3)))
    assert new.get_params().tobytes() == old.get_params().tobytes()
    optimizer = workload.optimizer_factory()
    data, batch = workload.dataset, workload.batch_size
    for step in range(20):
        rows = np.arange(step * batch, (step + 1) * batch) % len(data.x_train)
        x, y = data.x_train[rows], data.y_train[rows]
        value, grad = new.loss_and_grad(x, y)
        ref_value, ref_grad = old.loss_and_grad(x, y)
        assert value == ref_value, step
        assert grad.dtype == np.float32
        assert grad.tobytes() == ref_grad.tobytes(), step
        params = new.get_params() + optimizer.step(
            new.get_params(), grad, step
        )
        new.set_params(params)
        old.set_params(params)
    assert new.evaluate(data.x_test, data.y_test) == old.evaluate(
        data.x_test, data.y_test
    )
