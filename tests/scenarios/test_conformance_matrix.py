"""The cross-protocol x cross-scenario conformance matrix.

The standing gate for every future protocol or scenario PR: *every*
registered protocol must complete under *every* universal scenario
family, with

* no deadlock (the run finishes; ``DeadlockError`` fails the cell),
* a finite final loss, and
* bitwise-identical ``TrainingRun`` stats across two same-seed runs
  (the whole stack — scenario models, fault injection, simulation —
  stays deterministic).

Non-universal families (permanent ``crash``) are excluded by
definition — they require native crash support — and covered by the
dedicated hop crash tests instead.  New protocols and new scenario
families are picked up automatically through the two registries.

Since the full-grid elasticity pass the churn families (``churn``,
``churn-poisson``, ``churn-trace``) are a second, equally standing
matrix: *every* protocol is elastic, so every protocol x churn-family
cell must complete without deadlock, keep finite loss, and stay
bitwise deterministic and golden-pinned — membership events included.

The determinism gate is two-layered: same-seed runs must agree with
*each other* (below), and every cell must agree bit-for-bit with the
golden fingerprints recorded in ``golden_stats.json`` before the PR 4
simulator-core refactor — so engine/reducer/parameter-plane rework
cannot silently shift any result.  Re-record the goldens (and review
the diff) with ``scripts/record_golden_stats.py`` only for intentional
semantic changes.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.gap import gap_bound_matrix
from repro.graphs import ring_based
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import svm_workload
from repro.harness.golden import (
    CHURN_CELLS,
    CNN_FAMILY,
    COMPRESSION_CELLS,
    ELASTIC_PROTOCOLS,
    MAX_ITER,
    N_WORKERS,
    churn_conformance_spec,
    cnn_conformance_spec,
    compression_conformance_spec,
    conformance_spec,
    golden_fingerprint,
    run_fingerprint,
)
from repro.protocols import registered_protocols
from repro.protocols.registry import get_protocol
from repro.scenarios import ScenarioSpec, registered_scenarios

assert N_WORKERS == 4 and MAX_ITER == 5, "golden pin moved; re-record"

WORKLOAD = svm_workload("smoke")

GOLDEN_PATH = Path(__file__).parent / "golden_stats.json"
GOLDEN_CELLS = json.loads(GOLDEN_PATH.read_text())["cells"]

#: SHA-256 over the 90 pre-membership-plane cells (protocol x universal
#: family), pinned at the PR 4 recording.  The membership-plane PR adds
#: churn cells to the file but must never touch these.
PRE_MEMBERSHIP_CELLS_SHA256 = (
    "c05d6a52eb19c56270724f53d4f0f00c9ddc5a338b50b067d87d85ae4291658f"
)

#: The protocols that were already elastic before the full-grid
#: elasticity pass, and their two churn families recorded then.  Those
#: 6 churn cells plus the 90 static cells (96 total) predate the pass
#: and are pinned below: making the remaining six protocols elastic
#: must not perturb a single recorded byte.
FIRST_WAVE_ELASTIC = ("adpsgd", "hop", "partial-allreduce")
FIRST_WAVE_CHURN_FAMILIES = ("churn", "churn-poisson")
PRE_ELASTICITY_CELLS_SHA256 = (
    "83d30fd52c37e8531bf35cca06940a39c2b307ece10239289bc86033de42aa59"
)


@pytest.mark.parametrize("family", registered_scenarios(universal_only=True))
@pytest.mark.parametrize("protocol", registered_protocols())
def test_protocol_scenario_cell(protocol, family):
    """One matrix cell: completes, converges finitely, deterministic."""
    first = run_spec(conformance_spec(protocol, family))

    # No deadlock: every worker ran to the end.
    assert all(c == MAX_ITER for c in first.iterations_completed), (
        f"{protocol} under {family}: iterations "
        f"{first.iterations_completed}"
    )
    # Finite loss: training stayed numerically sane.
    assert first.final_loss is not None and math.isfinite(first.final_loss)
    assert np.isfinite(first.final_params).all()
    assert math.isfinite(first.wall_time) and first.wall_time > 0

    # Bitwise-identical stats across two same-seed runs.
    second = run_spec(conformance_spec(protocol, family))
    assert run_fingerprint(first) == run_fingerprint(second), (
        f"{protocol} under {family} is not deterministic"
    )

    # Bitwise-identical to the pre-refactor golden recording: pinned
    # event ordering and floating-point accumulation order.  A new
    # protocol/family without a golden yet fails loudly so the
    # recording is refreshed deliberately.
    key = f"{protocol}/{family}"
    assert key in GOLDEN_CELLS, (
        f"no golden recorded for {key}; run "
        "scripts/record_golden_stats.py and review the diff"
    )
    assert golden_fingerprint(first) == GOLDEN_CELLS[key], (
        f"{protocol} under {family} no longer matches the recorded "
        "golden stats: the simulator's numerical or event-ordering "
        "behavior changed"
    )


@pytest.mark.parametrize("family", sorted(CHURN_CELLS))
@pytest.mark.parametrize("protocol", ELASTIC_PROTOCOLS)
def test_elastic_protocol_churn_cell(protocol, family):
    """One churn cell: elastic protocols survive membership churn.

    Same contract as the universal cells, adapted to elasticity:
    every *never-leaving* worker completes all iterations, the
    membership lifecycle is recorded, and the whole run (membership
    events included) is bitwise deterministic and golden-pinned.
    """
    first = run_spec(churn_conformance_spec(protocol, family))

    leavers = {
        event["worker"]
        for event in first.membership_events
        if event["kind"] == "leave"
    }
    assert leavers, f"{protocol}/{family}: the pinned plan must churn"
    stalled = [
        wid
        for wid, completed in enumerate(first.iterations_completed)
        if completed != MAX_ITER and wid not in leavers
    ]
    assert not stalled, (
        f"{protocol} under {family}: non-leaving workers stalled "
        f"{stalled} (iterations {first.iterations_completed})"
    )
    assert first.final_loss is not None and math.isfinite(first.final_loss)
    assert np.isfinite(first.final_params).all()
    kinds = {event["kind"] for event in first.membership_events}
    assert "rewire" in kinds, "every transition must report its rewire"

    second = run_spec(churn_conformance_spec(protocol, family))
    assert run_fingerprint(first) == run_fingerprint(second), (
        f"{protocol} under {family} churn is not deterministic"
    )

    key = f"{protocol}/{family}"
    assert key in GOLDEN_CELLS, (
        f"no golden recorded for {key}; run "
        "scripts/record_golden_stats.py and review the diff"
    )
    assert golden_fingerprint(first) == GOLDEN_CELLS[key], (
        f"{protocol} under {family} no longer matches the recorded "
        "golden stats: the membership plane's numerical or "
        "event-ordering behavior changed"
    )


@pytest.mark.parametrize("scheme", sorted(COMPRESSION_CELLS))
@pytest.mark.parametrize("protocol", registered_protocols())
def test_compressed_protocol_cell(protocol, scheme):
    """One compressed cell: every protocol trains under every
    registered compression scheme, sends strictly fewer payload bytes
    than its dense twin, and stays bitwise deterministic and
    golden-pinned (the pin covers the error-feedback math and top-k's
    deterministic tie-breaking)."""
    first = run_spec(compression_conformance_spec(protocol, scheme))

    assert all(c == MAX_ITER for c in first.iterations_completed), (
        f"{protocol} under {scheme}: iterations "
        f"{first.iterations_completed}"
    )
    assert first.final_loss is not None and math.isfinite(first.final_loss)
    assert np.isfinite(first.final_params).all()

    dense = run_spec(conformance_spec(protocol, "none"))
    assert first.bytes_sent < dense.bytes_sent, (
        f"{protocol}/{scheme}: compression did not shrink the wire "
        f"({first.bytes_sent} vs dense {dense.bytes_sent})"
    )
    assert first.messages_sent == dense.messages_sent, (
        "compression changes payload sizes, never the message pattern"
    )

    second = run_spec(compression_conformance_spec(protocol, scheme))
    assert run_fingerprint(first) == run_fingerprint(second), (
        f"{protocol} under {scheme} is not deterministic"
    )

    key = f"{protocol}/compressed-{scheme}"
    assert key in GOLDEN_CELLS, (
        f"no golden recorded for {key}; run "
        "scripts/record_golden_stats.py and review the diff"
    )
    assert golden_fingerprint(first) == GOLDEN_CELLS[key], (
        f"{protocol} under {scheme} no longer matches the recorded "
        "golden stats: the compression plane's numerical behavior "
        "changed"
    )


@pytest.mark.parametrize("protocol", registered_protocols())
def test_cnn_protocol_cell(protocol):
    """One CNN cell: every protocol trains the smoke CNN for the pinned
    five iterations, deterministically and golden-pinned.  Every other
    cell is SVM (``Dense`` + ``LogisticLoss``), so these nine are the
    grid's only view of ``Conv2D`` / ``MaxPool2D`` / ``ReLU`` /
    ``SoftmaxCrossEntropy``; they were recorded on the kernels of
    ``31a55f6`` and a kernel change must reproduce them, not re-record
    them."""
    first = run_spec(cnn_conformance_spec(protocol))

    assert all(c == MAX_ITER for c in first.iterations_completed), (
        f"{protocol} on the CNN: iterations {first.iterations_completed}"
    )
    assert first.final_loss is not None and math.isfinite(first.final_loss)
    assert np.isfinite(first.final_params).all()

    second = run_spec(cnn_conformance_spec(protocol))
    assert run_fingerprint(first) == run_fingerprint(second), (
        f"{protocol} on the CNN is not deterministic"
    )

    key = f"{protocol}/{CNN_FAMILY}"
    assert key in GOLDEN_CELLS, (
        f"no golden recorded for {key}; run "
        "scripts/record_golden_stats.py --only-missing on the kernels "
        "the cell is meant to pin and review the diff"
    )
    assert golden_fingerprint(first) == GOLDEN_CELLS[key], (
        f"{protocol} on the CNN no longer matches the recorded golden "
        "stats: an ml kernel changed a bit"
    )


def _is_static_svm_cell(key: str) -> bool:
    """A protocol x universal-family cell (the 90 oldest recordings)."""
    family = key.split("/", 1)[1]
    return (
        family not in CHURN_CELLS
        and family != CNN_FAMILY
        and not family.startswith("compressed-")
    )


def test_compression_none_matches_dense_bitwise():
    """`compression=None` and `CompressionSpec("none")` are the same
    run, byte for byte — the dense path must be untouched by the
    compression plane's existence."""
    from repro.compression import CompressionSpec

    base = conformance_spec("hop", "none")
    dense = run_spec(base)
    named_none = run_spec(
        base.with_(compression=CompressionSpec("none"))
    )
    assert run_fingerprint(dense) == run_fingerprint(named_none)


def test_pre_membership_golden_cells_untouched():
    """The 90 pre-refactor cells are immutable: static-membership runs
    must be unaffected by the membership plane, byte for byte."""
    original = {
        key: value
        for key, value in GOLDEN_CELLS.items()
        if _is_static_svm_cell(key)
    }
    assert len(original) == 90
    blob = json.dumps(
        {key: original[key] for key in sorted(original)}, sort_keys=True
    ).encode()
    assert (
        hashlib.sha256(blob).hexdigest() == PRE_MEMBERSHIP_CELLS_SHA256
    ), (
        "a pre-membership golden cell changed; static runs must stay "
        "bitwise identical (re-recording these 90 cells is never part "
        "of an elasticity change)"
    )


def test_pre_elasticity_golden_cells_untouched():
    """The 96 cells recorded before the full-grid elasticity pass (90
    static + the first-wave trio's 6 churn cells) are immutable: making
    the other six protocols elastic must not move a byte of them."""
    keys = {key for key in GOLDEN_CELLS if _is_static_svm_cell(key)}
    keys.update(
        f"{protocol}/{family}"
        for protocol in FIRST_WAVE_ELASTIC
        for family in FIRST_WAVE_CHURN_FAMILIES
    )
    assert len(keys) == 96
    blob = json.dumps(
        {key: GOLDEN_CELLS[key] for key in sorted(keys)}, sort_keys=True
    ).encode()
    assert (
        hashlib.sha256(blob).hexdigest() == PRE_ELASTICITY_CELLS_SHA256
    ), (
        "a pre-elasticity golden cell changed; converting the remaining "
        "protocols to elastic must leave every previously recorded cell "
        "bitwise identical"
    )


def test_churn_rejected_for_non_elastic_protocols():
    """The registry gate is a standing conformance obligation: a churn
    plan aimed at a protocol registered non-elastic must fail loudly at
    build time, never silently run a static cluster.  Every built-in is
    elastic now, so the gate is exercised through a throwaway
    registration."""
    from repro.protocols.registry import PROTOCOLS, register_protocol

    name = "test-static-dummy"
    register_protocol(
        name,
        lambda spec: pytest.fail("builder must not run: gate fires first"),
        summary="non-elastic dummy for the churn registry gate",
    )
    try:
        assert not get_protocol(name).elastic
        for family in sorted(CHURN_CELLS):
            with pytest.raises(ValueError, match="not elastic"):
                run_spec(churn_conformance_spec(name, family))
    finally:
        PROTOCOLS.remove(name)


def test_full_grid_is_elastic():
    """The tentpole obligation: every registered protocol is elastic,
    ELASTIC_PROTOCOLS mirrors the registry flags, and therefore every
    protocol runs every churn family in the matrix above."""
    flagged = tuple(
        sorted(
            name
            for name in registered_protocols()
            if get_protocol(name).elastic
        )
    )
    assert flagged == tuple(sorted(ELASTIC_PROTOCOLS))
    assert flagged == tuple(registered_protocols()), (
        "a registered protocol is not elastic; the full-grid contract "
        "requires every built-in to survive membership churn"
    )


#: A plan whose only event is a leave at the horizon: the worker
#: finishes first, so the plan clips to nothing.
HORIZON_LEAVE = {"leaves": {N_WORKERS - 1: MAX_ITER}}


@pytest.mark.parametrize("protocol", registered_protocols())
def test_a_churn_plan_clipped_to_nothing_is_the_static_run(protocol):
    """Every protocol normalizes a plan the horizon clips away to no
    plan at all: the run is the quiet cell's, bit for bit (the two
    specs differ only in their labels, which the fingerprint skips)."""
    clipped = run_spec(conformance_spec(protocol, "churn", params=HORIZON_LEAVE))
    static = run_spec(conformance_spec(protocol, "none"))
    assert clipped.membership_events == []
    assert run_fingerprint(clipped) == run_fingerprint(static)


def test_static_groups_reject_a_plan_the_horizon_clips_away():
    """Partial all-reduce's static groups refuse churn on the plan as
    given, before clipping: even a plan that would clip to nothing."""
    spec = conformance_spec(
        "partial-allreduce", "churn", params=HORIZON_LEAVE
    ).with_(static_groups=True)
    with pytest.raises(ValueError, match="static_groups"):
        run_spec(spec)


def test_matrix_covers_at_least_six_families():
    assert len(registered_scenarios(universal_only=True)) >= 6


def test_matrix_covers_every_registered_protocol():
    assert len(registered_protocols()) >= 6


class TestCrashRestartBlastRadius:
    """The acceptance cell: crash-restart's neighbor blast radius must
    respect Theorem 2's iteration-gap bound."""

    def test_hop_crash_restart_gap_within_theorem2_bound(self):
        from repro.core.config import backup_config

        topology = ring_based(6)
        config = backup_config(n_backup=1, max_ig=3)
        spec = ExperimentSpec(
            name="crash-restart-gap",
            workload=WORKLOAD,
            topology=topology,
            protocol="hop",
            config=config,
            scenario=ScenarioSpec(
                "crash-restart",
                {"worker": 2, "at": 4, "downtime_iters": 8.0},
            ),
            max_iter=16,
            seed=3,
        )
        run = run_spec(spec)
        assert all(c == 16 for c in run.iterations_completed)
        bounds = gap_bound_matrix(topology, "backup+tokens", max_ig=3)
        assert not run.gap.violations(bounds)
        kinds = [event["kind"] for event in run.fault_events]
        assert kinds.count("crashed") == 1
        assert kinds.count("restarted") == 1

    def test_crash_restart_under_every_protocol(self):
        """The crash-restart family is universal: nobody deadlocks."""
        for protocol in registered_protocols():
            run = run_spec(conformance_spec(protocol, "crash-restart"))
            assert all(c == MAX_ITER for c in run.iterations_completed), (
                f"{protocol} stalled under crash-restart"
            )
