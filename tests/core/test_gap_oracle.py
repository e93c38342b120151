"""The gaps a run reads off its ledger, against the tracker it replaced.

Every protocol used to call ``GapTracker.record`` as a worker entered an
iteration.  Now each entry draws a stamp from the run's
:attr:`~repro.sim.trace.Ledger.order` and its ledger row keeps it, each
membership move is a ledger move, and :class:`~repro.core.gap.ObservedGaps`
derives the gaps after the run.  On every golden cell, hop under a
permanent crash and hop skipping under backup workers and bounded
staleness, the tracker of ``tests/oracles/gap.py`` fed the same
transitions in stamp order answers the same ``max_gap`` and pair maxima,
and ``max_gap`` is the recorded golden one.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from oracles.gap import replay

from repro.core.config import SkipConfig, backup_config, staleness_config
from repro.harness.golden import (
    CHURN_CELLS,
    CNN_FAMILY,
    churn_conformance_spec,
    cnn_conformance_spec,
    compression_conformance_spec,
    conformance_spec,
)
from repro.protocols.registry import build_cluster

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "scenarios" / "golden_stats.json").read_text()
)["cells"]


def golden_spec(key):
    protocol, family = key.split("/")
    if family in CHURN_CELLS:
        return churn_conformance_spec(protocol, family)
    if family.startswith("compressed-"):
        return compression_conformance_spec(
            protocol, family[len("compressed-") :]
        )
    if family == CNN_FAMILY:
        return cnn_conformance_spec(protocol)
    return conformance_spec(protocol, family)


CELLS = {key: golden_spec(key) for key in sorted(GOLDEN)}
CELLS["hop/crash"] = conformance_spec("hop", "crash")
for name, config in (
    ("backup1", backup_config(1)),
    ("staleness2", staleness_config(2)),
):
    CELLS[f"hop/skip-{name}"] = conformance_spec("hop", "straggler").with_(
        config=dataclasses.replace(config, skip=SkipConfig(3, 2)), max_iter=12
    )


def run_cell(spec):
    run = build_cluster(spec).run()
    return run, run.ledger.transitions()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_the_ledger_reads_the_trackers_gaps(cell):
    run, transitions = run_cell(CELLS[cell])
    oracle = replay(run.n_workers, *transitions)
    assert run.gap.max_observed() == oracle.max_observed()
    assert np.array_equal(run.gap._fold(), oracle._fold())
    if cell in GOLDEN:
        assert run.gap.max_observed().hex() == GOLDEN[cell]["max_gap"]


def test_the_cells_cover_what_the_gap_has_to_read():
    """A lockstep round, membership moves, an iteration a crash left
    open, and the skips' jumps are all among the transitions read."""
    def transitions_of(cell):
        return run_cell(CELLS[cell])[1]

    stamps, *_ = transitions_of("allreduce/none")
    assert len(np.unique(stamps)) < len(stamps)  # shared round stamps
    *_, entered = transitions_of("hop/churn")
    assert not entered.all()  # joins and leaves
    run, (stamps, *_) = run_cell(CELLS["hop/crash"])
    assert len(stamps) > len(run.ledger)  # entries no row ends
    for cell in ("hop/skip-backup1", "hop/skip-staleness2"):
        run = build_cluster(CELLS[cell]).run()
        assert sum(run.iterations_skipped) > 0


def test_workers_entering_one_iteration_at_one_instant_read_a_gap_of_one():
    """Hop's quiet cell is lockstep: every worker enters each iteration
    at the same simulated instant, one process after another.  The
    tracker read that order as a gap of 1 (the first to move sees the
    rest one behind), and so does the ledger."""
    run, (stamps, workers, iterations, _) = run_cell(CELLS["hop/none"])
    starts = run.ledger.column("start", run.n_workers)
    assert (starts == starts[:1]).all()  # every k entered at one instant
    assert len(np.unique(stamps)) == len(stamps)  # in the DES's order
    assert run.gap.max_observed() == 1.0
    assert GOLDEN["hop/none"]["max_gap"] == (1.0).hex()
