"""Neural-network layers with explicit forward/backward passes.

Pure-numpy implementations sized for the simulator: the paper trains
VGG11 on CIFAR-10; we train a scaled-down VGG-style CNN (same layer
types: convolution, ReLU, max-pooling, dense) on synthetic images, so
gradient *dynamics* are real while per-step cost stays laptop-sized.

Every layer implements::

    y = layer.forward(x, training=...)
    dx = layer.backward(dy)     # also accumulates parameter gradients

What ``forward(training=True)`` caches for ``backward`` belongs to that
one backward pass: ``backward`` releases it, so a model between steps
holds parameters and gradients only (at 1024 workers the last minibatch
per replica is most of a worker's footprint).  A second ``backward``
without a new ``forward`` raises ``RuntimeError``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.ml.initializers import he, zeros
from repro.ml.params import Parameter


class Layer:
    """Base class: stateless layers just override forward/backward."""

    def parameters(self) -> List[Parameter]:
        return []

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully connected layer: ``y = x @ W.T + b``."""

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator
    ) -> None:
        self.in_features = in_features
        self.out_features = out_features
        self.W = Parameter(he((out_features, in_features), rng), "dense.W")
        self.b = Parameter(zeros((out_features,), rng), "dense.b")
        self._x: Optional[np.ndarray] = None

    def parameters(self) -> List[Parameter]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected (N, {self.in_features}), got {x.shape}"
            )
        self._x = x if training else None
        return x @ self.W.data.T + self.b.data

    def backward(
        self, dout: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Accumulate parameter grads; return ``dx`` (or ``None``).

        ``need_input_grad=False`` skips the input-gradient matmul —
        used for a network's first layer, whose ``dx`` has no consumer.
        """
        x, self._x = self._x, None
        if x is None:
            raise RuntimeError("backward() before forward(training=True)")
        self.W.grad += dout.T @ x
        self.b.grad += dout.sum(axis=0)
        if not need_input_grad:
            return None
        return dout @ self.W.data

    def __repr__(self) -> str:
        return f"Dense({self.in_features}, {self.out_features})"


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return x * mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            raise RuntimeError("backward() before forward(training=True)")
        return dout * mask


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def __init__(self) -> None:
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._shape = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        shape, self._shape = self._shape, None
        if shape is None:
            raise RuntimeError("backward() before forward()")
        return dout.reshape(shape)


#: Most samples one cached im2col plan covers.  A larger batch (a
#: 512-row ``evaluate``) is gathered in blocks of this many samples, so
#: no plan is sized by the test set.  The col2im plan covers a whole
#: training batch, as only training runs a backward pass.
_PLAN_SAMPLES = 64


@lru_cache(maxsize=256)
def _conv_plan(
    x_shape: Tuple[int, int, int, int], kh: int, kw: int, stride: int, pad: int
) -> Tuple[int, int, np.ndarray]:
    """Cached im2col index plan for one (input shape, kernel) pair.

    Returns ``(out_h, out_w, plan)`` where ``plan`` holds, for every
    im2col column entry, its flat source index in the *unpadded* input;
    an entry that falls in the zero padding points one past the end
    (``n * c * h * w``), the slot where :meth:`Conv2D.forward` puts a
    single zero.  Shaped ``(c*kh*kw, n*out_h*out_w)``, columns ordered
    ``(n, out_h, out_w)`` to line up with ``W.T @ dout_mat`` in
    :meth:`Conv2D.backward` without a transpose.  The plan depends only
    on shapes, so each (layer, input-shape) pair computes it once per
    process instead of on every forward pass.  :meth:`Conv2D.forward`
    asks for blocks of at most ``_PLAN_SAMPLES`` samples,
    :func:`_col2im_plan` for the training batch it inverts.
    """
    n, c, h, w = x_shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1

    i0 = np.tile(np.repeat(np.arange(kh), kw), c) - pad
    j0 = np.tile(np.arange(kw), kh * c) - pad
    k0 = np.repeat(np.arange(c), kh * kw)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    # (c*kh*kw, out_h*out_w) row, column and flat offset within one
    # unpadded sample.
    i = i0[:, None] + i1[None, :]
    j = j0[:, None] + j1[None, :]
    within = (k0[:, None] * h + i) * w + j
    offsets = np.arange(n) * (c * h * w)
    plan = within[:, None, :] + offsets[None, :, None]
    padding = (i < 0) | (i >= h) | (j < 0) | (j >= w)
    np.copyto(plan, n * c * h * w, where=padding[:, None, :])
    # Left writeable, unlike the pool tables: ndarray.take asks for a
    # writeable index array and copies one that is not, which costs
    # more than take saves over fancy indexing.  Nothing outside this
    # module sees the plan.
    return out_h, out_w, plan.reshape(c * kh * kw, n * out_h * out_w)


@lru_cache(maxsize=256)
def _col2im_plan(
    x_shape: Tuple[int, int, int, int], kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Cached col2im gather plan: ``(taps, pixels)`` column indices.

    Column ``p`` lists, in ascending order, the im2col entries that
    :func:`_conv_plan` reads from unpadded input pixel ``p``; a pixel
    with fewer than ``taps`` entries (a border pixel) is filled up with
    ``n*c*kh*kw*out_h*out_w``, the zero slot behind ``dcols`` in
    :meth:`Conv2D.backward`.  ``pixels`` is ``n*c*h*w`` rounded up to
    whole 64-element spans of zero-slot columns, so that no pixel falls
    in the scalar tail of numpy's add loop.  That matters only for
    which NaN a sum keeps: with numpy 2.4's x86-64 AVX2 and AVX-512
    loops the vector body keeps the running sum's NaN, as the CSR
    matvec this replaced does, and the scalar tail keeps the other
    operand's.  Its SSE4.2 baseline loops keep a different one, and
    other builds and CPUs may too; no finite or infinite result
    depends on it.  Writeable for the reason the im2col plan is.
    """
    _, _, plan = _conv_plan(x_shape, kh, kw, stride, pad)
    plan = plan.ravel()
    m = math.prod(x_shape)
    # Stable: each pixel's entries stay in ascending column order.
    columns = np.argsort(plan, kind="stable")[: np.count_nonzero(plan != m)]
    pixels = plan[columns]
    counts = np.bincount(pixels, minlength=m)
    first = np.cumsum(counts) - counts
    tap = np.arange(columns.size) - np.repeat(first, counts)
    width = -(-m // 64) * 64
    taps = int(counts.max(initial=0))
    gather = np.full((taps, width), plan.size, dtype=np.intp)
    gather[tap, pixels] = columns
    return gather


def _col2im(
    flat: np.ndarray, x_shape: Tuple[int, int, int, int], k: int,
    stride: int, pad: int,
) -> np.ndarray:
    """Sum every column entry of ``flat`` (``dcols`` then one zero) into
    its input pixel: one gather through the cached plan, then one
    reduction over the taps from +0.0.

    numpy adds along a slow axis row by row (pairwise summation is for
    the fast axis only), so each pixel's taps are added in ascending
    column order: the order of a CSR matvec with one row per pixel.  A
    sum that starts at +0.0 is never -0.0, so the zero slot a border
    pixel adds changes no bit.
    """
    gather = _col2im_plan(x_shape, k, k, stride, pad)
    taps = flat.take(gather, mode="clip")
    dx = np.add.reduce(taps, axis=0, initial=0)
    return dx[: math.prod(x_shape)].reshape(x_shape)


def _with_zero_slot(values: np.ndarray) -> np.ndarray:
    """``values`` flat and C-ordered, followed by one zero."""
    flat = np.empty(values.size + 1, dtype=values.dtype)
    np.copyto(flat[:-1].reshape(values.shape), values)
    flat[-1] = 0
    return flat


@lru_cache(maxsize=64)
def _flat_arange(size: int) -> np.ndarray:
    """Cached row indices for the pooling gather/scatter fast path."""
    indices = np.arange(size)
    indices.setflags(write=False)
    return indices


#: The two memory orders a pool reads its input through: NCHW itself,
#: and the ``(c, n, h, w)`` buffer a ``Conv2D`` (and the ``ReLU`` after
#: it) hands on as its ``transpose(1, 0, 2, 3)``.  Each is its own
#: inverse permutation.
_NCHW = (0, 1, 2, 3)
_CNHW = (1, 0, 2, 3)


def _memory_order(x: np.ndarray) -> Optional[Tuple[int, ...]]:
    """``_NCHW`` or ``_CNHW`` if ``x.transpose(order)`` is C-contiguous
    (NCHW first where both are), else ``None``."""
    if x.flags.c_contiguous:
        return _NCHW
    if x.transpose(_CNHW).flags.c_contiguous:
        return _CNHW
    return None


@lru_cache(maxsize=64)
def _pool_scatter_base(
    x_shape: Tuple[int, int, int, int], s: int, order: Tuple[int, ...]
) -> np.ndarray:
    """Flat index of each pooling window's top-left input pixel in the
    memory of an input laid out in ``order``, in NCHW window order.

    ``raw[offset:].take(base)`` is one window position's plane of the
    input's flat memory ``raw``, and ``base + _pool_offsets(s, w)[first]``
    the flat index of the window element selected by ``first``, so pool
    backward is a single scatter into a zeroed buffer of that layout —
    no expanded (windows, s*s) intermediate and no transposed
    reassembly copy.  Left writeable for the reason the conv plans are:
    ``take`` copies a read-only index on every call.
    """
    n, c, h, w = x_shape
    # Element strides of the sample and channel axes in that layout.
    if order == _NCHW:
        sample, channel = c * h * w, h * w
    else:
        sample, channel = h * w, n * h * w
    return (
        np.arange(n).reshape(n, 1, 1, 1) * sample
        + np.arange(c).reshape(1, c, 1, 1) * channel
        + np.arange(0, h, s).reshape(1, 1, h // s, 1) * w
        + np.arange(0, w, s)
    )


@lru_cache(maxsize=64)
def _pool_offsets(s: int, w: int) -> np.ndarray:
    """Flat offset of each of a window's ``s*s`` positions from its
    top-left pixel, in an input of width ``w`` (row-major positions)."""
    offsets = np.add.outer(np.arange(s) * w, np.arange(s)).ravel()
    offsets.setflags(write=False)
    return offsets


class Conv2D(Layer):
    """2D convolution (im2col), NCHW layout.

    Args:
        in_channels: Input channel count ``C``.
        out_channels: Number of filters ``F``.
        kernel_size: Square kernel side ``K``.
        rng: Initializer stream.
        stride: Spatial stride.
        pad: Zero padding on each side.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        pad: int = 0,
    ) -> None:
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        self.W = Parameter(
            he((out_channels, in_channels, kernel_size, kernel_size), rng),
            "conv.W",
        )
        self.b = Parameter(zeros((out_channels,), rng), "conv.b")
        self._cache: Optional[tuple] = None

    def parameters(self) -> List[Parameter]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n = x.shape[0]
        k, stride, pad = self.kernel_size, self.stride, self.pad
        # im2col as one flat gather through the cached index plan per
        # block of at most _PLAN_SAMPLES samples, each into its columns
        # of one matrix (a training batch is one block).  Blocks joined
        # afterwards would keep two cols-sized arrays alive at once.
        # cols: (C*K*K, N*out_h*out_w), columns ordered (n, out_h, out_w).
        cols = None
        for start in range(0, max(n, 1), _PLAN_SAMPLES):
            block = x[start : start + _PLAN_SAMPLES]
            out_h, out_w, plan = _conv_plan(block.shape, k, k, stride, pad)
            if cols is None:
                cols = np.empty((plan.shape[0], n * out_h * out_w), x.dtype)
            first = start * out_h * out_w
            # The input flat, then (with padding) the one zero every
            # padding entry of the plan points at: no padded buffer.
            # Every index is in range by construction; "clip" skips the
            # check.
            flat = _with_zero_slot(block) if pad else block.ravel()
            flat.take(
                plan, mode="clip", out=cols[:, first : first + plan.shape[1]]
            )

        out = self.W.data.reshape(self.out_channels, -1) @ cols
        out += self.b.data.reshape(-1, 1)
        out = out.reshape(self.out_channels, n, out_h, out_w)
        out = out.transpose(1, 0, 2, 3)

        if training:
            self._cache = (x.shape, x.dtype, cols)
        else:
            self._cache = None
        return out

    def backward(
        self, dout: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Accumulate parameter grads; return ``dx`` (or ``None``).

        ``need_input_grad=False`` skips the whole col2im half of the
        pass — :class:`~repro.ml.models.Sequential` uses it for the
        first layer of a network, whose input gradient has no consumer.
        """
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError("backward() before forward(training=True)")
        x_shape, x_dtype, cols = cache
        k, pad = self.kernel_size, self.pad

        # dout columns ordered (n, out_h, out_w) to match `cols`.
        dout_mat = dout.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        self.b.grad += dout_mat.sum(axis=1)
        self.W.grad += (dout_mat @ cols.T).reshape(self.W.shape)
        if not need_input_grad:
            return None

        W_row = self.W.data.reshape(self.out_channels, -1)
        # dcols (C*K*K, N*out_h*out_w), written ahead of the zero slot
        # the col2im plan's border taps point at.
        flat = np.empty(cols.size + 1, np.result_type(W_row, dout_mat))
        np.matmul(W_row.T, dout_mat, out=flat[:-1].reshape(cols.shape))
        flat[-1] = 0
        dx = _col2im(flat, x_shape, k, self.stride, pad)
        return dx.astype(x_dtype, copy=False)

    def __repr__(self) -> str:
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, stride={self.stride}, pad={self.pad})"
        )


class MaxPool2D(Layer):
    """Max pooling with square window and matching stride (NCHW)."""

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(f"input {h}x{w} not divisible by pool size {s}")
        # Backward hands dx back in the layout x came in, so a conv's
        # transposed output gets a gradient its backward reads as a view.
        order = _memory_order(x)
        if s == 2:
            # 2x2 fast path: the four window positions as contiguous
            # planes, then a three-call max tree over them — no strided
            # operand, no argmax inner loop.  np.maximum hands back its
            # second operand on a tie, so the earlier window position
            # goes second: bit-identical to the generic path down to the
            # sign of a zero, and a NaN anywhere in a window comes out
            # as NaN.
            shape = (n, c, h // 2, w // 2)
            if order is not None and n <= _PLAN_SAMPLES:
                # Each plane one gather from x's flat memory, shifted by
                # the position's offset, through the cached window base;
                # every index is in range, so "clip" skips the check.
                raw = x.transpose(order).ravel()
                base = _pool_scatter_base(x.shape, 2, order)
                w00, w01, w10, w11 = (
                    raw[offset:].take(base, mode="clip")
                    for offset in _pool_offsets(2, w)
                )
            else:
                # Any other layout, or a batch no cached base is sized
                # for (a 512-row evaluate): one strided copy.
                planes = np.empty((2, 2) + shape, dtype=x.dtype)
                planes[...] = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(
                    3, 5, 0, 1, 2, 4
                )
                w00, w01, w10, w11 = planes.reshape((4,) + shape)
            top = np.maximum(w01, w00)
            bottom = np.maximum(w11, w10)
            out = np.maximum(bottom, top)
            self._cache = None
            if training:
                # Row-major position of the first max (strict >: the
                # earlier position keeps a tie), one byte per window.
                top_right = (w01 > w00).view(np.uint8)
                bottom_right = (w11 > w10).view(np.uint8)
                bottom_wins = (bottom > top).view(np.uint8)
                first = bottom_right + 2
                first -= top_right
                first *= bottom_wins
                first += top_right
                self._cache = (x.shape, first, order or _NCHW)
            return out
        # windows: (N, C, H/s, W/s, s*s)
        windows = (
            x.reshape(n, c, h // s, s, w // s, s)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h // s, w // s, s * s)
        )
        # Ties break deterministically: only the first max gets gradient.
        first = np.argmax(windows, axis=-1)
        rows = _flat_arange(first.size)
        out = windows.reshape(first.size, s * s)[rows, first.ravel()]
        out = out.reshape(first.shape)
        self._cache = (x.shape, first, order or _NCHW) if training else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError("backward() before forward(training=True)")
        x_shape, first, order = cache
        s = self.size
        # One fancy scatter through the cached flat-index base: each
        # window routes its gradient to the selected input pixel of a
        # zeroed buffer in x's layout directly, with no (windows, s*s)
        # intermediate and no transposed reassembly copy.
        index = _pool_offsets(s, x_shape[3]).take(first)
        index += _pool_scatter_base(x_shape, s, order)
        dx = np.zeros(math.prod(x_shape), dtype=dout.dtype)
        dx[index] = dout
        return dx.reshape([x_shape[axis] for axis in order]).transpose(order)

    def __repr__(self) -> str:
        return f"MaxPool2D({self.size})"
