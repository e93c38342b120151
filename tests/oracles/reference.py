"""Reference (naive) conv/pool kernels: the pre-optimization seed code.

The fast paths in :mod:`repro.ml.layers` cache their im2col index plan
and replace the ``np.add.at`` col2im scatter with one sparse matvec.
These functions keep the original, obviously correct implementations
so the parity suite (``tests/ml/test_conv_fastpath.py``) can check the
fast kernels against them across stride/pad/dtype combinations.
They live under ``tests/oracles/`` (on the test ``pythonpath``, so a
test imports them as ``oracles.reference``): nothing in ``src/`` imports
this module.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def im2col_indices(
    x_shape: Tuple[int, int, int, int], kh: int, kw: int, stride: int, pad: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Index arrays mapping padded input pixels to column positions."""
    n, c, h, w = x_shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


def conv2d_forward_reference(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Naive im2col convolution forward (NCHW)."""
    n, c = x.shape[0], x.shape[1]
    n_filters, _, kh, kw = weight.shape
    k_idx, i_idx, j_idx, out_h, out_w = im2col_indices(
        x.shape, kh, kw, stride, pad
    )
    x_pad = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = x_pad[:, k_idx, i_idx, j_idx].transpose(1, 2, 0)
    cols = cols.reshape(c * kh * kw, -1)
    w_row = weight.reshape(n_filters, -1)
    out = w_row @ cols + bias.reshape(-1, 1)
    out = out.reshape(n_filters, out_h, out_w, n)
    return out.transpose(3, 0, 1, 2)


def conv2d_backward_reference(
    x: np.ndarray,
    weight: np.ndarray,
    dout: np.ndarray,
    stride: int = 1,
    pad: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Naive conv backward: ``np.add.at`` col2im scatter.

    Returns ``(dx, dweight, dbias)``.
    """
    n, c, h, w = x.shape
    n_filters, _, kh, kw = weight.shape
    k_idx, i_idx, j_idx, _, _ = im2col_indices(x.shape, kh, kw, stride, pad)
    x_pad = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = x_pad[:, k_idx, i_idx, j_idx].transpose(1, 2, 0)
    cols = cols.reshape(c * kh * kw, -1)

    dout_mat = dout.transpose(1, 2, 3, 0).reshape(n_filters, -1)
    dbias = dout_mat.sum(axis=1)
    dweight = (dout_mat @ cols.T).reshape(weight.shape)

    w_row = weight.reshape(n_filters, -1)
    dcols = w_row.T @ dout_mat
    dcols = dcols.reshape(c * kh * kw, -1, n).transpose(2, 0, 1)
    dx_pad = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    np.add.at(dx_pad, (slice(None), k_idx, i_idx, j_idx), dcols)
    if pad:
        dx = dx_pad[:, :, pad:-pad, pad:-pad]
    else:
        dx = dx_pad
    return dx, dweight, dbias


def maxpool_forward_reference(
    x: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Naive max pooling; returns ``(out, mask)`` with a first-max mask."""
    n, c, h, w = x.shape
    s = size
    windows = (
        x.reshape(n, c, h // s, s, w // s, s)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h // s, w // s, s * s)
    )
    out = windows.max(axis=-1)
    first = np.argmax(windows, axis=-1)
    mask = np.zeros_like(windows, dtype=bool)
    idx = np.indices(first.shape)
    mask[idx[0], idx[1], idx[2], idx[3], first] = True
    return out, mask


def maxpool_backward_reference(
    dout: np.ndarray, x_shape: Tuple[int, ...], mask: np.ndarray, size: int
) -> np.ndarray:
    """Naive max pooling backward from the boolean first-max mask."""
    n, c, h, w = x_shape
    s = size
    expanded = dout[..., None] * mask
    return (
        expanded.reshape(n, c, h // s, w // s, s, s)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h, w)
    )
