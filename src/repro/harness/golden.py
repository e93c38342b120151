"""Golden-stats determinism contract for the simulator core.

One :func:`conformance_spec` cell per registered protocol x universal
scenario family (SVM), churn, compressed and CNN cells on top, plus a
bitwise-exact :func:`golden_fingerprint` of the resulting
:class:`~repro.protocols.base.TrainingRun`.  The recorded
fingerprints (``tests/scenarios/golden_stats.json``, written by
``scripts/record_golden_stats.py``) pin the simulator's numerical and
event-ordering behavior: any refactor of the engine, network, reducers
or parameter plane must reproduce every cell bit-for-bit, or explain
itself and re-record.

Floats are serialized as IEEE-754 hex (``float.hex``) so JSON
round-trips cannot launder a one-ulp drift; parameter vectors are
SHA-256 digests of their raw bytes.  :func:`run_fingerprint` and
:func:`control_fingerprint` are the wider, in-process comparisons
(determinism, value independence, replay against eager).
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.graphs import bipartite_ring, ring_based
from repro.harness.spec import ExperimentSpec
from repro.harness.workloads import cnn_workload, svm_workload
from repro.scenarios import ScenarioSpec

#: Gossip protocols need a bipartite graph; everyone else runs the
#: paper's ring-based topology.
BIPARTITE_PROTOCOLS = ("adpsgd", "momentum-tracking")

#: Small-cluster pin: big enough to exercise real concurrency,
#: small enough that the full matrix stays a seconds-scale gate.
N_WORKERS = 4
MAX_ITER = 5

#: Protocols registered elastic: they additionally run the churn cells.
#: Since the full-grid elasticity pass this is every built-in protocol;
#: the conformance matrix asserts the registry flags stay in lockstep.
ELASTIC_PROTOCOLS = (
    "adpsgd",
    "allreduce",
    "hop",
    "momentum-tracking",
    "notify_ack",
    "partial-allreduce",
    "ps-async",
    "ps-bsp",
    "ps-ssp",
)

#: Pinned params for the churn conformance cells: one permanent leave,
#: one leave/rejoin cycle (scripted), a seeded Poisson draw, and a
#: correlated spot-preemption wave (trace family) — small enough for
#: the 4-worker pin, rich enough to cross every lifecycle path (leave,
#: rewire, rejoin, re-sync, and for the parameter servers re-shard).
CHURN_CELLS = {
    "churn": {"leaves": {3: 2}, "cycles": {2: [1, 2]}},
    "churn-poisson": {"rate": 0.5, "horizon": 5, "rejoin_after": 1},
    "churn-trace": {
        "preset": "spot",
        "waves": [1],
        "fraction": 1.0,
        "restart_after": 1,
        "min_active": 2,
    },
}

#: Pinned params for the compressed conformance cells: every protocol
#: replays the quiet ("none") family under each registered compression
#: scheme, so the error-feedback math, the deterministic top-k
#: tie-breaking (argpartition ties broken by index) and the wire-byte
#: pricing are pinned bitwise alongside the dense cells.
COMPRESSION_CELLS = {
    "topk": {"ratio": 0.25},
    "randomk": {"ratio": 0.25},
    "int8": {},
}

#: Key suffix of the CNN cells (``<protocol>/cnn-none``): every
#: protocol replays the quiet family once more on the smoke CNN, the
#: only cells that run a conv or pool kernel.
CNN_FAMILY = "cnn-none"


def conformance_spec(
    protocol: str, family: str, seed: int = 1, params: Optional[dict] = None
) -> ExperimentSpec:
    """The pinned spec for one protocol x scenario conformance cell."""
    topology = (
        bipartite_ring(N_WORKERS)
        if protocol in BIPARTITE_PROTOCOLS
        else ring_based(N_WORKERS)
    )
    extras = {"ps_staleness": 2} if protocol == "ps-ssp" else {}
    return ExperimentSpec(
        name=f"conformance/{protocol}/{family}",
        workload=svm_workload("smoke"),
        topology=topology,
        protocol=protocol,
        scenario=ScenarioSpec(family, dict(params or {})),
        max_iter=MAX_ITER,
        seed=seed,
        **extras,
    )


def churn_conformance_spec(
    protocol: str, family: str, seed: int = 1
) -> ExperimentSpec:
    """The pinned churn cell for one elastic protocol."""
    return conformance_spec(
        protocol, family, seed=seed, params=CHURN_CELLS[family]
    )


def compression_conformance_spec(
    protocol: str, scheme: str, seed: int = 1
) -> ExperimentSpec:
    """The pinned compressed cell for one protocol x scheme."""
    from repro.compression import CompressionSpec

    return conformance_spec(protocol, "none", seed=seed).with_(
        name=f"conformance/{protocol}/compressed-{scheme}",
        compression=CompressionSpec(
            scheme, dict(COMPRESSION_CELLS[scheme])
        ),
    )


def cnn_conformance_spec(protocol: str, seed: int = 1) -> ExperimentSpec:
    """The pinned CNN cell for one protocol (quiet scenario).

    Every other cell trains the SVM, whose ``Dense`` / ``LogisticLoss``
    path never enters a conv or pool kernel; these cells are what lets
    the grid see a change to one.
    """
    return conformance_spec(protocol, "none", seed=seed).with_(
        name=f"conformance/{protocol}/{CNN_FAMILY}",
        workload=cnn_workload("smoke"),
    )


def _hexfloat(value) -> Optional[str]:
    return None if value is None else float(value).hex()


def golden_fingerprint(run) -> dict:
    """JSON-safe, bitwise-exact fingerprint of a TrainingRun."""
    fingerprint = {
        "wall_time": _hexfloat(run.wall_time),
        "final_params_sha256": hashlib.sha256(
            run.final_params.tobytes()
        ).hexdigest(),
        "final_params_dtype": str(run.final_params.dtype),
        "final_loss": _hexfloat(run.final_loss),
        "final_accuracy": _hexfloat(run.final_accuracy),
        "iterations_completed": [int(c) for c in run.iterations_completed],
        "iterations_skipped": [int(s) for s in run.iterations_skipped],
        "messages_sent": int(run.messages_sent),
        # The recorded cells predate the delivered/dropped/control
        # accounting split: their ``bytes_sent`` key pins the legacy
        # launch-time aggregate, which now lives in bytes_attempted.
        # The key name stays so every recording remains byte-identical.
        "bytes_sent": _hexfloat(run.bytes_attempted),
        "messages_dropped": int(run.messages_dropped),
        "consensus": _hexfloat(run.consensus),
        "max_gap": _hexfloat(run.gap.max_observed()),
        "fault_events": [
            {
                "kind": event["kind"],
                "worker": int(event["worker"]),
                "time": _hexfloat(event["time"]),
                "iteration": int(event["iteration"]),
            }
            for event in run.fault_events
        ],
    }
    if run.membership_events:
        # Only churn cells carry this key, so the 90 pre-membership
        # recordings stay byte-identical.
        fingerprint["membership_events"] = [
            {
                key: _hexfloat(value)
                if isinstance(value, float)
                else value
                for key, value in event.items()
            }
            for event in run.membership_events
        ]
    return fingerprint


def _exact(value):
    """``value`` with every float as IEEE-754 hex, containers walked."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (list, tuple)):
        return type(value)(_exact(item) for item in value)
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    return value


def run_fingerprint(run, values: bool = True) -> dict:
    """Everything a :class:`~repro.protocols.base.TrainingRun` reports,
    as exact bits: run counters, every worker's stats, every ledger row,
    every traced sample and, with ``values``, what the parameters
    decide.

    ``values=False`` drops the final parameters, loss, accuracy and
    consensus, each worker's ``loss_mean`` and the traced loss *values*
    (their timestamps stay): the control a run whose gradients are
    stubbed must share with the real one.
    """
    fingerprint = {
        "wall_time": run.wall_time,
        "iterations_completed": list(run.iterations_completed),
        "iterations_skipped": list(run.iterations_skipped),
        "messages_sent": run.messages_sent,
        "messages_dropped": run.messages_dropped,
        "bytes_sent": run.bytes_sent,
        "bytes_attempted": run.bytes_attempted,
        "bytes_dropped": run.bytes_dropped,
        "control_bytes": run.control_bytes,
        "bytes_retransmitted": run.bytes_retransmitted,
        "events_scheduled": run.events_scheduled,
        "max_gap": run.gap.max_observed(),
        "fault_events": run.fault_events,
        "membership_events": run.membership_events,
        "worker_stats": [
            {
                key: value
                for key, value in stats.items()
                if values or key != "loss_mean"
            }
            for stats in run.worker_stats
        ],
        "ledger": run.ledger.table().tolist(),
        "traced": {
            key: [
                (time, value)
                if values or not key.startswith("loss/")
                else time
                for time, value in run.tracer.raw(key)
            ]
            for key in run.tracer.keys()
        },
    }
    if values:
        fingerprint.update(
            final_params=hashlib.sha256(
                run.final_params.tobytes()
            ).hexdigest(),
            final_params_dtype=str(run.final_params.dtype),
            final_loss=run.final_loss,
            final_accuracy=run.final_accuracy,
            consensus=run.consensus,
        )
    return _exact(fingerprint)


def control_fingerprint(cluster, run) -> dict:
    """``run_fingerprint(run, values=False)`` (the ledger included) plus
    what a hop worker keeps beyond its stats: its event counters."""
    fingerprint = run_fingerprint(run, values=False)
    fingerprint["workers"] = [
        (
            worker.n_jumps,
            worker.n_suppressed_sends,
            worker.n_extra_updates,
            worker.n_staleness_blocks,
            worker.n_cache_hits,
        )
        for worker in cluster._workers
    ]
    return fingerprint
