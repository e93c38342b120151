"""The replaced per-row draw: one worker's batches, a row per call.

A replay used to draw each worker's batches through a ``Horizon``, one
:meth:`next_indices` call per row.  :class:`repro.ml.data.Horizons`
gathers a whole level's rows by ``(wid, k)`` instead; this spelling is
kept as the oracle its rows and draws are held to
(``tests/ml/test_compute_seam.py``) and as the draw order the replay
mutation check reorders (``tests/core/test_replay.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.data import Batcher


class Horizon:
    """A worker's next ``left`` batches on ``batcher``.

    :meth:`next_indices` returns the batcher's rows in order, drawn
    through :meth:`Batcher.take` in blocks of at most ``_PREFETCH`` of
    the horizon, each kept in the smallest unsigned dtype that holds
    ``len(x) - 1``.  The block that reaches the horizon releases the
    batcher's stream; past the horizon it draws a row at a time.
    """

    def __init__(self, batcher: Batcher, left: int) -> None:
        self.batcher = batcher
        self.left = left
        self._dtype = np.min_scalar_type(max(len(batcher.x) - 1, 0))
        self._block: Optional[np.ndarray] = None
        self._cursor = 0

    def next_indices(self) -> np.ndarray:
        block = self._block
        if block is None or self._cursor >= len(block):
            rows = max(1, min(Batcher._PREFETCH, self.left))
            batcher = self.batcher
            block = self._block = batcher.take(rows).astype(self._dtype)
            if 0 < self.left <= rows:
                batcher.release()
            self.left -= rows
            self._cursor = 0
        idx = block[self._cursor]
        self._cursor += 1
        return idx
