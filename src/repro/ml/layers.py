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


class Tanh(Layer):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = np.tanh(x)
        self._out = out if training else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        out, self._out = self._out, None
        if out is None:
            raise RuntimeError("backward() before forward(training=True)")
        return dout * (1.0 - out**2)


class Sigmoid(Layer):
    """Logistic activation."""

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))
        self._out = out if training else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        out, self._out = self._out, None
        if out is None:
            raise RuntimeError("backward() before forward(training=True)")
        return dout * out * (1.0 - out)


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


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng
        self._mask: Optional[np.ndarray] = None
        self._trained = False

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            self._trained = training
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        self._trained = True
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if not self._trained:
            raise RuntimeError("backward() before forward(training=True)")
        mask, self._mask = self._mask, None
        self._trained = False
        if mask is None:  # rate == 0: identity
            return dout
        return dout * mask

    def __repr__(self) -> str:
        return f"Dropout({self.rate})"


@lru_cache(maxsize=256)
def _conv_plan(
    x_shape: Tuple[int, int, int, int], kh: int, kw: int, stride: int, pad: int
) -> Tuple[int, int, np.ndarray]:
    """Cached im2col/col2im index plan for one (input shape, kernel) pair.

    Returns ``(out_h, out_w, plan)`` where ``plan`` holds, for every
    im2col column entry, its flat source index in the *unpadded* input;
    an entry that falls in the zero padding points one past the end
    (``n * c * h * w``), the slot where :meth:`Conv2D.forward` puts a
    single zero and which :func:`_col2im_operator` leaves out.  Ordered
    ``(c*kh*kw, n, out_h*out_w)`` to line up with ``W.T @ dout_mat`` in
    :meth:`Conv2D.backward` without a transpose.  The plan depends only
    on shapes, so each (layer, input-shape) pair computes it once per
    process instead of on every forward pass.
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
    # Left writeable, unlike the other cached tables: ndarray.take asks
    # for a writeable index array and copies one that is not, which
    # costs more than take saves over fancy indexing.  Nothing outside
    # this module sees the plan.
    return out_h, out_w, plan.ravel()


@lru_cache(maxsize=256)
def _col2im_operator(
    x_shape: Tuple[int, int, int, int], kh: int, kw: int, stride: int, pad: int
):
    """Cached sparse col2im scatter matrix.

    ``op @ dcols.ravel()`` sums every column entry into its input pixel
    in one CSR matvec that preserves float32.  One row per *unpadded*
    pixel: an entry that fell in the padding has no row, so the product
    is ``dx`` itself, contiguous.  Within a row the entries stay in
    ascending column order, which is the order the sum runs in.
    """
    # Imported on a cache miss only, so a process that never
    # backpropagates through a conv never loads scipy.sparse.
    from scipy import sparse

    _, _, plan = _conv_plan(x_shape, kh, kw, stride, pad)
    m = int(np.prod(x_shape))
    columns = np.flatnonzero(plan != m)
    return sparse.csr_matrix(
        (np.ones(columns.size, dtype=np.float32), (plan[columns], columns)),
        shape=(m, plan.size),
    )


@lru_cache(maxsize=64)
def _flat_arange(size: int) -> np.ndarray:
    """Cached row indices for the pooling gather/scatter fast path."""
    indices = np.arange(size)
    indices.setflags(write=False)
    return indices


@lru_cache(maxsize=64)
def _pool_scatter_base(
    x_shape: Tuple[int, int, int, int], s: int
) -> np.ndarray:
    """Flat index of each pooling window's top-left input pixel.

    ``base + _pool_offsets(s, w)[first]`` is the flat input index of
    the window element selected by ``first``, so pool backward becomes
    a single fancy scatter into a zeroed flat buffer — no expanded
    (windows, s*s) intermediate and no transposed reassembly copy.
    """
    n, c, h, w = x_shape
    rows = np.arange(n * c * (h // s)).reshape(n, c, h // s, 1)
    cols = np.arange(w // s).reshape(1, 1, 1, w // s)
    base = (rows * s * w + cols * s).reshape(n, c, h // s, w // s)
    base.setflags(write=False)
    return base


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
        n, c = x.shape[:2]
        k, stride, pad = self.kernel_size, self.stride, self.pad
        out_h, out_w, plan = _conv_plan(x.shape, k, k, stride, pad)
        if pad:
            # The input once, flat, then the one zero every padding
            # entry of the plan points at: no padded buffer.
            flat = np.empty(x.size + 1, dtype=x.dtype)
            np.copyto(flat[:-1].reshape(x.shape), x)
            flat[-1] = 0
        else:
            flat = x.ravel()
        # im2col as one flat gather through the cached index plan (every
        # index is in range by construction; "clip" skips the check).
        # cols: (C*K*K, N*out_h*out_w), columns ordered (n, out_h, out_w).
        cols = flat.take(plan, mode="clip").reshape(
            c * k * k, n * out_h * out_w
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
        dcols = W_row.T @ dout_mat  # (C*K*K, N*out_h*out_w)

        # col2im: scatter-add every column entry back to its input pixel
        # through the cached index plan, as one sparse matvec.
        operator = _col2im_operator(x_shape, k, k, self.stride, pad)
        dx = operator @ dcols.ravel()
        return dx.reshape(x_shape).astype(x_dtype, copy=False)

    def __repr__(self) -> str:
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, stride={self.stride}, pad={self.pad})"
        )


class AvgPool2D(Layer):
    """Average pooling with square window and matching stride (NCHW)."""

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(f"input {h}x{w} not divisible by pool size {s}")
        self._shape = x.shape if training else None
        return x.reshape(n, c, h // s, s, w // s, s).mean(axis=(3, 5))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        shape, self._shape = self._shape, None
        if shape is None:
            raise RuntimeError("backward() before forward(training=True)")
        n, c, h, w = shape
        s = self.size
        share = dout / (s * s)
        expanded = np.broadcast_to(
            share[:, :, :, None, :, None], (n, c, h // s, s, w // s, s)
        )
        return expanded.reshape(n, c, h, w)

    def __repr__(self) -> str:
        return f"AvgPool2D({self.size})"


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
        if s == 2:
            # 2x2 fast path: the four window positions copied out once
            # as contiguous planes, then a three-call max tree over
            # flat arrays — no strided operand, no argmax inner loop.
            # np.maximum hands back its second operand on a tie, so
            # the earlier window position goes second: bit-identical
            # to the generic path down to the sign of a zero, and a
            # NaN anywhere in a window comes out as NaN.
            shape = (n, c, h // 2, w // 2)
            planes = np.empty((2, 2) + shape, dtype=x.dtype)
            planes[...] = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(
                3, 5, 0, 1, 2, 4
            )
            w00, w01, w10, w11 = planes.reshape(4, -1)
            top = np.maximum(w01, w00)
            bottom = np.maximum(w11, w10)
            out = np.maximum(bottom, top).reshape(shape)
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
                self._cache = (x.shape, first.reshape(shape))
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
        self._cache = (x.shape, first) if training else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError("backward() before forward(training=True)")
        x_shape, first = cache
        n, c, h, w = x_shape
        s = self.size
        # One fancy scatter through the cached flat-index base: each
        # window routes its gradient to the selected input pixel
        # directly, with no (windows, s*s) intermediate and no
        # transposed reassembly copy.
        dx = np.zeros(n * c * h * w, dtype=dout.dtype)
        base = _pool_scatter_base(x_shape, s)
        dx[base + _pool_offsets(s, w)[first]] = dout
        return dx.reshape(n, c, h, w)

    def __repr__(self) -> str:
        return f"MaxPool2D({self.size})"
