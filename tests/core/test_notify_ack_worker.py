"""NOTIFY-ACK on Hop's worker: it ignores ``HopConfig`` and reports
exactly its own ``worker_stats``.

A NOTIFY-ACK worker runs ``HopWorker.run`` with ``notify_ack=True`` and
``NOTIFY_ACK`` (the serial graph, no token queues); the run's
``spec.config`` reaches NOTIFY-ACK only through the update queues the
cluster builds from it.  A backup-worker, bounded-staleness,
skipping or send-suppression config must therefore leave every golden
fingerprint and every per-worker stat where the ``STANDARD`` run puts
them.  Handing the worker ``spec.config`` instead turns on the backup
or staleness receive and fails these tests.  The ACK channels are Hop's
per-edge token queues primed with one token whatever the config says.
Each protocol family has one iteration body: every hop and NOTIFY-ACK
process runs ``HopWorker.run``, and adpsgd and momentum-tracking both
build ``ADPSGDCluster``.
"""

import hashlib
import json

import pytest

from repro.baselines.adpsgd import ADPSGDCluster
from repro.core.config import (
    STANDARD,
    HopConfig,
    SkipConfig,
    backup_config,
    staleness_config,
)
from repro.core.worker import HopWorker
from repro.harness.golden import (
    churn_conformance_spec,
    conformance_spec,
    golden_fingerprint,
)
from repro.harness.spec import run_spec
from repro.protocols.registry import build_cluster
from repro.sim import Environment

CELLS = {
    "none": lambda protocol: conformance_spec(protocol, "none"),
    "churn": lambda protocol: churn_conformance_spec(protocol, "churn"),
    "random": lambda protocol: conformance_spec(protocol, "random"),
    "crash-restart": lambda protocol: conformance_spec(protocol, "crash-restart"),
}

CONFIGS = {
    "backup": backup_config(1),
    "check-receiver": HopConfig(check_receiver_iteration=True),
    "staleness": staleness_config(2, max_ig=4),
    "skip": backup_config(1, skip=SkipConfig()),
}

COMMON_KEYS = [
    "wid",
    "iterations_completed",
    "iteration_duration_mean",
    "iteration_duration_max",
    "recv_wait_mean",
    "loss_mean",
    "iterations_skipped",
]

#: Every ``worker_stats`` entry's keys, in order.
KEYS = {
    "notify_ack": COMMON_KEYS + ["ack_wait_mean"],
    "hop": COMMON_KEYS
    + [
        "n_restarts",
        "n_jumps",
        "n_suppressed_sends",
        "n_extra_updates",
        "n_staleness_blocks",
        "token_wait_mean",
    ],
}

#: SHA-256 of ``stats_digest`` per (protocol, cell), recorded before
#: NOTIFY-ACK moved onto Hop's worker.
STATS_SHA256 = {
    ("notify_ack", "none"): "a7e7f628f98618f336e2337ffecb94cd19baf958920f2a9840dc03856dd2a331",
    ("notify_ack", "churn"): "6bf69990fbcea4f1b5af0f3078ffb64581a30558c4c902ce14475dfdca0d8142",
    ("hop", "none"): "534283525f8e486c601974450e0ef6794fc0511883b7f084bfd9aa543188c01b",
    ("hop", "churn"): "d8835884ea26561aea48275bd12a23994a8ee8d2482993f65da06321e404ae8d",
    ("notify_ack", "random"): "fb8834a9eef13e0b35afdf9ca717ea9adf496f14a0c4dc0aaf5f5ddc7c3ad271",
    ("hop", "random"): "29a43cfac9a229c7803578344cb00038b4de11c5da94bbe20325111e782bb853",
    ("notify_ack", "crash-restart"): "15a6891f85a543cb6af6d00f2d3b6578f381bcdf0ebea5faa64bb4fbda036d11",
    ("hop", "crash-restart"): "648bf6839b8439f5e855f35ad39a3278f280ad4a82c2a62cc0836099a09e3268",
}


def exact_stats(run):
    """``worker_stats`` with floats as IEEE-754 hex, key order kept."""
    return [
        {
            key: float(value).hex() if isinstance(value, float) else value
            for key, value in stats.items()
        }
        for stats in run.worker_stats
    ]


def stats_digest(run) -> str:
    return hashlib.sha256(json.dumps(exact_stats(run)).encode()).hexdigest()


@pytest.fixture(scope="module")
def standard_runs():
    return {
        (protocol, cell): run_spec(CELLS[cell](protocol))
        for protocol in KEYS
        for cell in CELLS
    }


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("protocol", sorted(KEYS))
def test_worker_stats_keys_and_values_are_pinned(standard_runs, protocol, cell):
    run = standard_runs[(protocol, cell)]
    assert [list(stats) for stats in run.worker_stats] == [
        KEYS[protocol]
    ] * len(run.worker_stats)
    assert stats_digest(run) == STATS_SHA256[(protocol, cell)]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_notify_ack_ignores_hop_config(standard_runs, cell, config):
    standard = standard_runs[("notify_ack", cell)]
    run = run_spec(CELLS[cell]("notify_ack").with_(config=CONFIGS[config]))
    assert golden_fingerprint(run) == golden_fingerprint(standard)
    assert exact_stats(run) == exact_stats(standard)
    assert run.events_scheduled == standard.events_scheduled


@pytest.mark.parametrize("protocol", ["hop", "notify_ack"])
def test_every_worker_process_runs_the_one_hop_loop(protocol):
    cluster = build_cluster(conformance_spec(protocol, "none"))
    # A finished process lets go of its generator: look as they start.
    start, codes = cluster._start, []

    def start_and_look(runtime):
        start(runtime)
        codes.extend(p._generator.gi_code for p in cluster._processes)

    cluster._start = start_and_look
    cluster.run()
    assert {type(worker) for worker in cluster._workers} == {HopWorker}
    assert set(codes) == {HopWorker.run.__code__}


@pytest.mark.parametrize("protocol", ["adpsgd", "momentum-tracking"])
def test_both_gossip_protocols_build_the_one_adpsgd_cluster(protocol):
    cluster = build_cluster(conformance_spec(protocol, "none"))
    assert type(cluster) is ADPSGDCluster
    assert cluster.protocol == protocol


#: (protocol, config, tokens each edge's queue starts with; None = no
#: token fabric).  NOTIFY-ACK's ACK channels hold the implicit ACK(-1)
#: whatever the config; Hop's token queues hold ``max_ig - 1``.
FABRICS = {
    "notify_ack-standard": ("notify_ack", STANDARD, 1),
    "notify_ack-backup": ("notify_ack", backup_config(1, max_ig=6), 1),
    "notify_ack-no-token-queues": (
        "notify_ack",
        HopConfig(use_token_queues=False),
        1,
    ),
    "hop-standard": ("hop", STANDARD, STANDARD.max_ig - 1),
    "hop-backup": ("hop", backup_config(1, max_ig=6), 5),
    "hop-no-token-queues": ("hop", HopConfig(use_token_queues=False), None),
}


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_one_token_queue_per_edge_primed_per_protocol(fabric):
    protocol, config, initial = FABRICS[fabric]
    spec = conformance_spec(protocol, "none").with_(config=config)
    cluster = build_cluster(spec)
    queues = cluster._build_token_queues(Environment())
    if initial is None:
        assert queues == {}
        return
    edges = {
        (owner, consumer)
        for consumer, owner in spec.topology.edges
        if consumer != owner
    }
    assert set(queues) == edges
    for (owner, consumer), queue in queues.items():
        assert (queue.owner, queue.consumer) == (owner, consumer)
        assert queue.size() == queue.total_inserted == initial
        assert not queue.closed
