"""The gathered-plane pool, the gathered col2im and the unpadded,
sample-blocked im2col plan against the kernels they replaced.

``OldMaxPool2D``, ``CopyPlanesMaxPool2D``, ``OldConv2D``, ``CsrConv2D``
and ``FullPlanConv2D`` are the removed implementations (the where-tree
over strided window views with an int64 ``first``, the planes copied
out through one 6-D strided copy with a C-contiguous ``dx``, the
zero-filled padded buffer behind a padded-coordinate plan, the full
padded col2im operator whose border backward sliced away, the
interior-only CSR col2im operator, one im2col plan over every sample of
a batch), kept here as oracles.  The new
kernels only move data differently, so every comparison is on bits
(``.view(uint32 / uint64)``), never ``allclose``: that includes the sign
of a zero and, where ``dout`` holds NaNs and infinities, which NaN a sum
keeps.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.harness.workloads import cnn_workload
from repro.ml import layers
from repro.ml.layers import Conv2D, MaxPool2D


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
        base = old_pool_base(x_shape, s)
        dx[base + (first // s) * w + first % s] = dout
        return dx.reshape(n, c, h, w)


def old_pool_base(x_shape, s):
    """The removed scatter base: each window's top-left pixel in the
    flat NCHW input, built without the cache."""
    n, c, h, w = x_shape
    rows = np.arange(n * c * (h // s)).reshape(n, c, h // s, 1)
    cols = np.arange(w // s).reshape(1, 1, 1, w // s)
    return (rows * s * w + cols * s).reshape(n, c, h // s, w // s)


class CopyPlanesMaxPool2D(MaxPool2D):
    """The removed 2 x 2 kernel that copied every input into four
    contiguous planes through one 6-D strided copy and scattered ``dx``
    into a C-contiguous buffer, whatever the input's layout.  Unlike
    the where-tree it keeps a NaN anywhere in a window."""

    def forward(self, x, training=True):
        n, c, h, w = x.shape
        assert self.size == 2
        shape = (n, c, h // 2, w // 2)
        planes = np.empty((2, 2) + shape, dtype=x.dtype)
        planes[...] = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(
            3, 5, 0, 1, 2, 4
        )
        w00, w01, w10, w11 = planes.reshape(4, -1)
        top = np.maximum(w01, w00)
        bottom = np.maximum(w11, w10)
        out = np.maximum(bottom, top).reshape(shape)
        first = (w11 > w10).view(np.uint8) + 2
        first -= (w01 > w00).view(np.uint8)
        first *= (bottom > top).view(np.uint8)
        first += (w01 > w00).view(np.uint8)
        self._cache = (x.shape, first.reshape(shape)) if training else None
        return out

    backward = OldMaxPool2D.backward


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


def full_plan(x_shape, k, stride, pad):
    """The unpadded im2col plan over every sample of ``x_shape``, built
    without the cache, so that an oracle adds no entry to it."""
    return layers._conv_plan.__wrapped__(x_shape, k, k, stride, pad)


def csr_col2im(dcols, x_shape, k, stride, pad):
    """The removed col2im: one CSR matvec with a row per unpadded pixel,
    entries in ascending column order (``scipy.sparse`` is imported by
    this test only)."""
    _, _, plan = full_plan(x_shape, k, stride, pad)
    plan = plan.ravel()
    m = int(np.prod(x_shape))
    columns = np.flatnonzero(plan != m)
    ones = np.ones(columns.size, dtype=np.float32)
    operator = sparse.csr_matrix(
        (ones, (plan[columns], columns)), shape=(m, plan.size)
    )
    return (operator @ dcols.ravel()).reshape(x_shape)


class CsrConv2D(Conv2D):
    """``Conv2D`` with the removed CSR col2im."""

    def backward(self, dout, need_input_grad=True):
        (x_shape, x_dtype, cols), self._cache = self._cache, None
        dout_mat = dout.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        self.b.grad += dout_mat.sum(axis=1)
        self.W.grad += (dout_mat @ cols.T).reshape(self.W.shape)
        if not need_input_grad:
            return None
        dcols = self.W.data.reshape(self.out_channels, -1).T @ dout_mat
        dx = csr_col2im(dcols, x_shape, self.kernel_size, self.stride, self.pad)
        return dx.astype(x_dtype, copy=False)


class FullPlanConv2D(Conv2D):
    """The removed forward: one gather through one plan over the whole
    batch, however many samples it has."""

    def forward(self, x, training=True):
        n, c = x.shape[:2]
        k = self.kernel_size
        out_h, out_w, plan = full_plan(x.shape, k, self.stride, self.pad)
        flat = x.ravel()
        if self.pad:
            flat = np.concatenate([flat, np.zeros(1, dtype=x.dtype)])
        cols = flat.take(plan.ravel(), mode="clip").reshape(
            c * k * k, n * out_h * out_w
        )
        out = self.W.data.reshape(self.out_channels, -1) @ cols
        out += self.b.data.reshape(-1, 1)
        out = out.reshape(self.out_channels, n, out_h, out_w)
        self._cache = (x.shape, x.dtype, cols) if training else None
        return out.transpose(1, 0, 2, 3)


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


def pool_both(x, dout, oracle=OldMaxPool2D):
    new, old = MaxPool2D(2), oracle(2)
    out, ref_out = new.forward(x, training=True), old.forward(x, training=True)
    first, ref_first = new._cache[1], old._cache[1]
    return (
        (out, first, new.backward(dout)),
        (ref_out, ref_first, old.backward(dout)),
    )


def assert_layout_of(dx, x):
    """``dx`` is laid out as ``x`` is when ``x`` is a conv's ``(c, n, h,
    w)`` buffer seen through ``transpose(1, 0, 2, 3)``, and C-contiguous
    otherwise."""
    if x.transpose(1, 0, 2, 3).flags.c_contiguous and (
        not x.flags.c_contiguous
    ):
        assert dx.transpose(1, 0, 2, 3).flags.c_contiguous
        assert dx.strides == x.strides
    else:
        assert dx.flags.c_contiguous


LAYOUTS = {
    "nchw": lambda values: values,
    "cnhw": conv_successor_view,
    # Neither layout: a window of a wider buffer, copied into planes.
    "strided": lambda values: np.concatenate([values, values], axis=3)[
        ..., : values.shape[3]
    ],
}


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
    layout = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))]
    return layout(x), layout(dout)


class TestPoolEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(pool_inputs())
    def test_out_first_and_dx_are_exact(self, inputs):
        x, dout = inputs
        (out, first, dx), (ref_out, ref_first, ref_dx) = pool_both(x, dout)
        assert_same_bits(out, ref_out)
        assert out.flags.c_contiguous
        assert first.dtype == np.uint8 and ref_first.dtype == np.int64
        assert first.shape == ref_first.shape
        assert np.array_equal(first, ref_first)
        assert_same_bits(dx, ref_dx)
        assert_layout_of(dx, x)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_both_sides_of_the_plan_batch_are_exact(self, n, layout):
        """At most ``_PLAN_SAMPLES`` samples in a known layout gather the
        planes through the cached base; a larger batch or another
        layout copies them.  Both give the removed kernel's bits, and
        only a gathering forward looks a base up."""
        assert layers._PLAN_SAMPLES == 64
        rng = np.random.default_rng(n)
        x = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(n, 3, 6, 8))
        x = LAYOUTS[layout](x.astype(np.float32))
        dout = LAYOUTS[layout](
            rng.normal(size=(n, 3, 3, 4)).astype(np.float32)
        )
        layers._pool_scatter_base.cache_clear()
        new, old = MaxPool2D(2), CopyPlanesMaxPool2D(2)
        assert_same_bits(
            new.forward(x, training=False), old.forward(x, training=False)
        )
        gathered = layout != "strided" and n <= 64
        assert layers._pool_scatter_base.cache_info().misses == gathered
        (out, first, dx), (ref_out, ref_first, ref_dx) = pool_both(
            x, dout, CopyPlanesMaxPool2D
        )
        assert_same_bits(out, ref_out)
        assert first.dtype == ref_first.dtype == np.uint8
        assert np.array_equal(first, ref_first)
        assert_same_bits(dx, ref_dx)
        assert_layout_of(dx, x)
        assert layers._pool_scatter_base.cache_info().currsize == 1

    @pytest.mark.parametrize("layout", ["nchw", "cnhw"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_256_signed_zero_and_tie_windows(self, dtype, layout):
        """Every 2 x 2 window over {-0.0, +0.0, 1, -1}: which element a
        tie keeps decides the sign of a zero and where the gradient
        goes.  Prefixes of every length up to 33 windows as well, so a
        SIMD body and its scalar tail both face each kind of tie, and
        batches on both sides of ``_PLAN_SAMPLES``."""
        windows = np.array(
            list(itertools.product([-0.0, 0.0, 1.0, -1.0], repeat=4)),
            dtype=dtype,
        ).reshape(256, 1, 2, 2)
        dout = np.arange(1.0, 257.0, dtype=dtype).reshape(256, 1, 1, 1)
        for stop in [*range(1, 34), 64, 65, 256]:
            for start in (0, 256 - stop):
                x = windows[start : start + stop]
                grad = dout[start : start + stop]
                if layout == "cnhw":
                    # Two channels, so the layout is not C-contiguous.
                    x = conv_successor_view(np.concatenate([x, -x], axis=1))
                    grad = conv_successor_view(
                        np.concatenate([grad, grad + 256], axis=1)
                    )
                new, old = pool_both(x, grad)
                for got, expected in zip(new, old):
                    assert np.array_equal(got, expected)
                assert_same_bits(new[0], old[0])  # the sign of a zero
                assert_same_bits(new[2], old[2])
                assert_layout_of(new[2], x)

    @pytest.mark.parametrize("layout", ["nchw", "cnhw"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_and_tie_windows_keep_the_nan(self, dtype, layout):
        """The 256 windows with a NaN in place of -1 (a NaN anywhere in
        a window is its max), against the copying kernel (the where-tree
        drops a NaN outside the first position), in both layouts and on
        both sides of ``_PLAN_SAMPLES``."""
        windows = np.array(
            list(itertools.product([-0.0, 0.0, 1.0, np.nan], repeat=4)),
            dtype=dtype,
        ).reshape(256, 1, 2, 2)
        windows = np.concatenate([windows, windows[::-1]], axis=1)
        dout = np.arange(1.0, 513.0, dtype=dtype).reshape(256, 2, 1, 1)
        view = LAYOUTS[layout]
        for stop in (1, 17, 64, 65, 256):
            x, grad = view(windows[:stop]), view(dout[:stop])
            (out, first, dx), (ref_out, ref_first, ref_dx) = pool_both(
                x, grad, CopyPlanesMaxPool2D
            )
            assert_same_bits(out, ref_out)
            assert np.isnan(out).sum() == np.isnan(x).any(axis=(2, 3)).sum()
            assert first.dtype == ref_first.dtype == np.uint8
            assert np.array_equal(first, ref_first)
            assert_same_bits(dx, ref_dx)
            assert_layout_of(dx, x)

    def test_eval_forward_is_exact_and_caches_nothing(self):
        x = np.random.default_rng(0).normal(size=(3, 2, 4, 6))
        new, old = MaxPool2D(2), OldMaxPool2D(2)
        assert_same_bits(
            new.forward(x, training=False), old.forward(x, training=False)
        )
        assert new._cache is None

    @pytest.mark.parametrize("layout", ["nchw", "cnhw"])
    def test_generic_size_backward_is_unchanged(self, layout):
        """``s != 2`` still goes through ``argmax``; only its scatter
        index is spelled through the offset table, into ``x``'s
        layout."""
        rng = np.random.default_rng(1)
        x = rng.integers(-2, 3, size=(2, 3, 9, 6)).astype(np.float32)
        x = LAYOUTS[layout](x)
        layer = MaxPool2D(3)
        out = layer.forward(x, training=True)
        first = layer._cache[1]
        dout = rng.normal(size=out.shape).astype(np.float32)
        dx = layer.backward(dout)
        expected = np.zeros(x.size, dtype=np.float32)
        base = old_pool_base(x.shape, 3)
        expected[base + (first // 3) * 6 + first % 3] = dout
        assert_same_bits(dx, expected.reshape(x.shape))
        assert_layout_of(dx, x)


def conv_pair(c, filters, k, stride, pad, dtype, oracle=OldConv2D):
    pair = []
    for cls in (Conv2D, oracle):
        layer = cls(c, filters, k, np.random.default_rng(7), stride, pad)
        for p in layer.parameters():
            p.data = p.data.astype(dtype)
            p.grad = np.zeros_like(p.data)
        layer.b.data += np.arange(filters, dtype=dtype) / 8
        pair.append(layer)
    return pair


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
        params = new.get_params() + optimizer.step(new.get_params(), grad)
        new.set_params(params)
        old.set_params(params)
    assert new.evaluate(data.x_test, data.y_test) == old.evaluate(
        data.x_test, data.y_test
    )


@st.composite
def conv_backward_inputs(draw):
    """A conv shape, an input and a ``dout`` sprinkled with -0.0, +0.0,
    NaN and both infinities (a sum over several of them makes a NaN of
    either sign, and which one it keeps is part of its bits)."""
    k = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 2))
    pad = draw(st.integers(0, 2))
    n = draw(st.integers(1, 130))
    c = draw(st.integers(1, 3))
    smallest = max(1, k - 2 * pad)
    h = draw(st.integers(smallest, 9))
    w = draw(st.integers(smallest, 9))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    specials = draw(st.sampled_from([0.0, 0.05, 0.5]))
    return k, stride, pad, (n, c, h, w), dtype, specials, draw(
        st.integers(0, 2**32 - 1)
    )


class TestGatheredCol2im:
    @settings(max_examples=200, deadline=None)
    @given(conv_backward_inputs())
    def test_backward_bits_equal_the_csr_matvec(self, inputs):
        """Finite and infinite bits hold wherever numpy's add rounds to
        nearest.  Which NaN a sum keeps was checked on numpy 2.4.6,
        x86-64, with its AVX-512 (``X86_V4``) and AVX2 (``X86_V3``)
        loops; its SSE4.2 baseline loops (``X86_V2``) keep a NaN of the
        other sign, so there the NaN draws fail (see ``_col2im_plan``)."""
        k, stride, pad, shape, dtype, specials, seed = inputs
        new, old = conv_pair(
            shape[1], 3, k, stride, pad, dtype, oracle=CsrConv2D
        )
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape).astype(dtype)
        out = new.forward(x, training=True)
        old.forward(x, training=True)
        dout = rng.normal(size=out.shape)
        special = rng.random(out.shape) < specials
        dout[special] = rng.choice(
            [-0.0, 0.0, np.nan, np.inf, -np.inf], size=special.sum()
        )
        dout = dout.astype(dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            dx, ref_dx = new.backward(dout), old.backward(dout)
        assert_same_bits(dx, ref_dx)
        assert dx.flags.c_contiguous
        assert_same_bits(new.W.grad, old.W.grad)
        assert_same_bits(new.b.grad, old.b.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_zero_taps_sum_to_positive_zero(self, dtype):
        """Every column entry -0.0: the CSR sum from +0.0 gives +0.0 at
        every pixel, the 4-tap corners (five zero slots) and the 9-tap
        interior alike."""
        shape, k, stride, pad = (2, 3, 4, 4), 3, 1, 1
        _, _, plan = layers._conv_plan(shape, k, k, stride, pad)
        dcols = np.full(plan.shape, -0.0, dtype=dtype)
        flat = np.append(dcols.ravel(), dtype(0))
        dx = layers._col2im(flat, shape, k, stride, pad)
        assert_same_bits(dx, csr_col2im(dcols, shape, k, stride, pad))
        assert not np.signbit(dx).any()

    def test_an_empty_batch_passes_through(self):
        new, old = conv_pair(2, 3, 3, 1, 1, np.float32, oracle=CsrConv2D)
        x = np.zeros((0, 2, 4, 4), dtype=np.float32)
        out, ref_out = new.forward(x), old.forward(x)
        assert_same_bits(out, ref_out)
        assert_same_bits(new.backward(out), old.backward(ref_out))


class TestBlockedIm2col:
    """A batch of more than ``_PLAN_SAMPLES`` samples is gathered block by
    block into one ``cols``: the same matrix, so the same single GEMM."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 512])
    @pytest.mark.parametrize(
        "c, size, k, stride, pad", [(3, 8, 3, 1, 1), (2, 7, 2, 2, 0)]
    )
    def test_cols_and_forward_equal_one_full_plan(
        self, n, c, size, k, stride, pad
    ):
        new, old = conv_pair(c, 4, k, stride, pad, np.float32, FullPlanConv2D)
        x = np.random.default_rng(n).normal(size=(n, c, size, size))
        x = x.astype(np.float32)
        layers._conv_plan.cache_clear()
        out, ref_out = new.forward(x, training=True), old.forward(x)
        # Plans for a 64-sample block and the remainder only.
        blocks = {min(n, 64), n % 64 or 64}
        assert layers._PLAN_SAMPLES == 64
        assert layers._conv_plan.cache_info().currsize == len(blocks)
        for samples in blocks:
            layers._conv_plan((samples, c, size, size), k, k, stride, pad)
        assert layers._conv_plan.cache_info().misses == len(blocks)
        assert_same_bits(new._cache[2], old._cache[2])
        assert_same_bits(out, ref_out)
        assert_same_bits(
            new.forward(x, training=False), old.forward(x, training=False)
        )

    def test_paper_evaluation_equals_one_full_plan(self):
        workload = cnn_workload("paper")
        data = workload.dataset
        assert len(data.x_test) == 512
        new = workload.model_factory(np.random.default_rng(5))
        old = workload.model_factory(np.random.default_rng(5))
        for layer in old.network.layers:
            if type(layer) is Conv2D:
                layer.__class__ = FullPlanConv2D
        assert_same_bits(
            new.network.forward(data.x_test, training=False),
            old.network.forward(data.x_test, training=False),
        )
        assert new.evaluate(data.x_test, data.y_test) == old.evaluate(
            data.x_test, data.y_test
        )

