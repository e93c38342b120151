"""Loss-curve smoothing (``TrainingRun.smoothed_loss_series``)."""

from __future__ import annotations

import numpy as np


def smooth_series(values: np.ndarray, window: int = 5) -> np.ndarray:
    """Trailing moving average (for readable loss curves in reports)."""
    values = np.asarray(values, dtype=float)
    if window <= 1 or values.size == 0:
        return values
    kernel = np.ones(min(window, values.size)) / min(window, values.size)
    padded = np.concatenate([np.full(len(kernel) - 1, values[0]), values])
    return np.convolve(padded, kernel, mode="valid")
