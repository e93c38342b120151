"""Parameters and flat-vector packing.

Decentralized training exchanges *whole parameter vectors* between
workers (the paper sends parameters, not gradients).  The protocol
layer therefore works with flat ``numpy`` vectors; this module provides
the :class:`Parameter` container and the packing of a model's parameter
list into its flat representation.

A model's parameters *live* as views into one contiguous flat buffer
(:func:`pack_parameters`): the flat vector and the per-layer tensors
are two windows onto the same memory, so ``Model.get_params`` /
``set_params`` cost one aliased read / one memcpy instead of a
concatenate / per-tensor scatter.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np


class Parameter:
    """A trainable tensor with its gradient buffer."""

    def __init__(self, data: np.ndarray, name: str = "param") -> None:
        data = np.asarray(data)
        if data.dtype.kind != "f":
            data = data.astype(np.float64)
        self.data = data
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.data.shape)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def pack_parameters(
    parameters: Sequence[Parameter],
) -> Tuple[np.ndarray, np.ndarray]:
    """Repack parameter/grad tensors as views into contiguous buffers.

    Returns ``(flat_data, flat_grad)``.  After packing, every
    ``p.data`` / ``p.grad`` is a reshaped view into the corresponding
    flat buffer: writing the buffer updates the tensors and vice versa,
    with no copies on either path.  Existing values are preserved.

    Mixed-dtype parameter lists are promoted to their common dtype, as
    ``np.concatenate`` would.
    """
    if not parameters:
        return np.zeros(0), np.zeros(0)
    dtype = parameters[0].data.dtype
    for p in parameters[1:]:
        if p.data.dtype != dtype:
            dtype = np.result_type(*[q.data.dtype for q in parameters])
            break
    total = sum(p.size for p in parameters)
    flat = np.empty(total, dtype=dtype)
    flat_grad = np.empty(total, dtype=dtype)
    offset = 0
    for p in parameters:
        shape = p.data.shape
        end = offset + p.size
        flat[offset:end] = p.data.ravel()
        flat_grad[offset:end] = p.grad.ravel()
        p.data = flat[offset:end].reshape(shape)
        p.grad = flat_grad[offset:end].reshape(shape)
        offset = end
    return flat, flat_grad


def readonly_view(array: np.ndarray) -> np.ndarray:
    """A non-writable alias of ``array`` (zero-copy escape hatch).

    Handing out read-only views is how the flat-buffer owner shares its
    parameters without copying: a caller that needs to mutate (or keep
    a stable snapshot of) the vector must take an explicit ``.copy()``,
    and a forgotten copy fails loudly instead of corrupting the model.
    """
    view = array.view()
    view.setflags(write=False)
    return view


def total_size(parameters: Iterable[Parameter]) -> int:
    """Total number of scalar parameters."""
    return sum(p.size for p in parameters)
