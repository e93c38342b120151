"""The two replaced level derivations, kept as references for the one
level rule of :meth:`repro.core.planes.Record.levels`.

Hop and NOTIFY-ACK's replay used to derive its levels from a per-worker
``ready`` column, which the recorder filled as each reduce was
recorded; the parameter server's replay walked a wavefront of server
versions.  Both are spelled here over a :class:`~repro.core.planes.Record`
and return what the replay's ``evaluate_rows`` calls evaluated: one gid
list per call, in order (``tests/core/test_levels.py``).
"""

from __future__ import annotations

from typing import List

import numpy as np


def _combines(record):
    """Each combine's inputs, as a Python list, in record order."""
    out, start = [], 0
    for size in record.sizes:
        out.append(list(record.inputs[start : start + size]))
        start += size
    return out


def hop_batches(record, n_workers: int) -> List[List[int]]:
    """Hop's ``ready`` recurrence: ``ready[w][0] = 0`` and
    ``ready[w][k + 1] = 1 + max(ready[w][k], ready[j][k'])`` over the
    contributors ``(j, k')`` of worker ``w``'s iteration-``k`` reduce.
    Level 0 computes every worker's iteration 0; level ``L`` reduces
    the worker-iterations whose parameters become ready at ``L`` and
    computes their next iterations."""
    max_iter = record.max_iter
    ready = np.zeros((n_workers, max_iter + 1), dtype=int)
    for own, *updates in _combines(record):
        w, k = divmod(own, max_iter)
        level = ready[w, k]
        for gid in updates:
            level = max(level, ready[divmod(gid, max_iter)])
        ready[w, k + 1] = level + 1
    batches = [[w * max_iter for w in range(n_workers)]]
    done_at = ready[:, 1:]
    for level in np.unique(done_at).tolist():
        nodes = np.flatnonzero(done_at.ravel() == level)
        more = nodes % max_iter + 1 < max_iter
        gids = (nodes[more] + 1).tolist()
        if gids:
            batches.append(gids)
    return batches


def ps_batches(record) -> List[List[int]]:
    """The server's wavefront: a level evaluates every gradient whose
    pulled version exists, in version order, then applies folds in
    recorded order until one reads a gradient not yet evaluated."""
    versions = np.frombuffer(record.reads, dtype=np.intc) + 1
    folds = _combines(record)
    need = [max(int(versions[gid]) for gid in fold) for fold in folds]
    order = np.argsort(versions, kind="stable")
    ordered = versions[order]
    batches, start, fold = [], 0, 0
    while start < versions.size:
        ready = fold
        stop = int(np.searchsorted(ordered, ready, side="right"))
        batches.append(order[start:stop].tolist())
        start = stop
        while fold < len(folds) and need[fold] <= ready:
            fold += 1
    return batches
