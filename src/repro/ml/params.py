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

It also holds the runtime half of the static aliasing lint rules
(``alias-params-write``, ``alias-scratch-self``): with
``REPRO_SANITIZE=1`` in the environment, :class:`repro.ml.models.Model`
locks its flat parameter buffer and every per-layer view of it with
``writeable=False``, and unlocks the buffer only inside the sanctioned
in-place windows (``set_params``, the repack during ``astype``), which
wrap their writes in :func:`writable_window`.  Any other write into the
parameter plane then raises ``ValueError: assignment destination is
read-only`` at the offending line instead of silently corrupting golden
stats.  The sanitizer changes no values: one conformance cell runs
under ``REPRO_SANITIZE=1`` in CI and must reproduce its golden
fingerprint bit for bit (``tests/ml/test_sanitizer.py``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Sequence, Tuple

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


#: Environment flag enabling the write sanitizer ("" and "0" mean off).
ENV_FLAG = "REPRO_SANITIZE"


def sanitize_enabled() -> bool:
    """Whether the parameter-plane write sanitizer is on."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


@contextmanager
def writable_window(array: np.ndarray):
    """Temporarily re-enable writes on a sanitizer-locked buffer,
    restoring the previous flag even if the write raises."""
    previous = array.flags.writeable
    array.flags.writeable = True
    try:
        yield array
    finally:
        array.flags.writeable = previous
