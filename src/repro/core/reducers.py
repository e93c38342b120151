"""Reduce operators: how received updates are aggregated.

Standard / backup modes use a plain average (Figures 4 and 8).
Staleness mode uses the paper's Equation (2): an iteration-weighted
average where an update from iteration ``Iter(u)`` at a worker in
iteration ``k`` with staleness bound ``s`` gets weight
``Iter(u) - (k - s) + 1`` (newer updates count more).

Both reducers accumulate directly into a caller-supplied scratch buffer
(``out=``) instead of materializing an ``(n_updates, dim)`` stack: the
per-iteration hot path of every worker does zero parameter-sized
allocations once its scratch is warm.  The accumulation order (first
update, then ``+=`` each subsequent one, then one division) is exactly
the order ``np.stack(...).mean(axis=0)`` used, so results are
bit-identical to the pre-refactor implementation — the golden-stats
conformance suite pins this.

Accumulation happens in the common dtype of the *updates* (float32
parameters reduce in float32).  Weights are cast to that dtype before
multiplying, fixing the historical drift where float64 weights promoted
a float32 reduce to float64 mid-flight.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.update import Update


def _accumulator(
    updates: Sequence[Update], out: Optional[np.ndarray]
) -> np.ndarray:
    """``out`` if it matches the reduce dtype/shape, else a fresh buffer."""
    first = updates[0].params
    dtype = first.dtype
    for update in updates[1:]:
        if update.params.dtype != dtype:
            dtype = np.result_type(*[u.params.dtype for u in updates])
            break
    if out is None or out.shape != first.shape or out.dtype != dtype:
        out = np.empty(first.shape, dtype=dtype)
    return out


def mean_reduce(
    updates: Sequence[Update], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Figure 4 / Figure 8: simple average of the received parameters.

    Args:
        updates: The received updates (non-empty).
        out: Optional reusable scratch buffer; reused when its shape and
            the reduce dtype match, else a fresh buffer is allocated.

    Returns:
        The buffer holding the average (``out`` when it was usable).
    """
    if not updates:
        raise ValueError("cannot reduce zero updates")
    out = _accumulator(updates, out)
    np.copyto(out, updates[0].params)
    for update in updates[1:]:
        out += update.params
    out /= len(updates)
    return out


def weighted_reduce(
    updates: Sequence[Update],
    weights: Sequence[float],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Average with explicit non-negative weights (normalized).

    The accumulation stays in the updates' dtype: weights are cast
    before the multiply, so float32 parameters produce a float32
    result instead of silently promoting to float64.
    """
    if not updates:
        raise ValueError("cannot reduce zero updates")
    if len(updates) != len(weights):
        raise ValueError("one weight per update required")
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    out = _accumulator(updates, out)
    cast = out.dtype.type
    np.multiply(updates[0].params, cast(weights[0]), out=out)
    for update, weight in zip(updates[1:], weights[1:]):
        out += update.params * cast(weight)
    out /= cast(total)
    return out


def staleness_weighted_reduce(
    updates: Sequence[Update],
    iteration: int,
    staleness: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The paper's Equation (2).

    ``weight(u) = Iter(u) - (k - s) + 1`` for a worker in iteration
    ``k`` with staleness bound ``s``.  Satisfactory updates have
    ``Iter(u) >= k - s``, so weights are >= 1.

    Args:
        updates: The newest satisfactory update per contributing
            in-neighbor.
        iteration: The receiving worker's iteration ``k``.
        staleness: The staleness bound ``s``.
        out: Optional reusable scratch buffer (see :func:`mean_reduce`).
    """
    if not updates:
        raise ValueError("cannot reduce zero updates")
    floor = iteration - staleness
    weights = []
    for update in updates:
        if update.iteration < floor:
            raise ValueError(
                f"{update!r} is older than the staleness floor {floor}; "
                "unsatisfactory updates must be dropped before the reduce"
            )
        weights.append(update.iteration - floor + 1.0)
    return weighted_reduce(updates, weights, out=out)


# ----------------------------------------------------------------------
# Stacked forms: one row per receiving worker (the replay's reduce)
# ----------------------------------------------------------------------
def mean_reduce_rows(columns: Iterable[np.ndarray], count: int) -> np.ndarray:
    """:func:`mean_reduce` for a block of rows that each reduce
    ``count`` updates.

    ``columns`` yields ``count`` ``(rows, dim)`` blocks in arrival
    order: block ``t`` holds every row's ``t``-th update.  Each row sees
    the elementwise ops of :func:`mean_reduce` in its order — the first
    update, ``+=`` each later one, ``/=`` the count — so it is bit for
    bit that row's own reduce.  The first block is the accumulator and
    is returned: each block must be an array the caller hands over.
    """
    columns = iter(columns)
    out = next(columns)
    for column in columns:
        out += column
        del column  # freed before the next block is made
    out /= count
    return out


def weighted_reduce_rows(
    columns: Iterable[np.ndarray], weights: np.ndarray
) -> np.ndarray:
    """:func:`weighted_reduce` for a block of rows: ``weights[r, t]``
    weighs row ``r``'s ``t``-th update (``columns`` as in
    :func:`mean_reduce_rows`).  Same ops per row, in the same order:
    the first update times its weight, ``+=`` each later product, ``/=``
    the row's weight total (a sum of small integers here, exact in any
    order)."""
    columns = iter(columns)
    out = np.multiply(next(columns), weights[:, :1])
    for t, column in enumerate(columns, start=1):
        out += column * weights[:, t : t + 1]
    out /= weights.sum(axis=1, keepdims=True)
    return out


def staleness_weights(
    iterations: np.ndarray, receivers: np.ndarray, staleness: int
) -> np.ndarray:
    """Equation (2)'s weights as a block: ``iterations[r, t]`` is the
    tag of row ``r``'s ``t``-th update, ``receivers[r]`` the row's own
    iteration ``k``; the weight is ``Iter(u) - (k - s) + 1``."""
    floor = receivers - staleness
    return (iterations - floor[:, None] + 1).astype(np.float64)
