"""Weight initializers for the numpy NN engine."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def zeros(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-zero initialization (biases)."""
    del rng  # determinism: zeros never consume randomness
    return np.zeros(shape)


def he(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) initialization for ReLU networks.

    Fan-in is the product of all dimensions except the first (works for
    both dense ``(out, in)`` and conv ``(filters, C, KH, KW)`` shapes).
    """
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else int(shape[0])
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape)
