"""Hop: the paper's heterogeneity-aware decentralized training protocol.

:class:`HopCluster` (registered as protocols ``"hop"`` and
``"notify_ack"``) builds on the shared scaffolding in
:mod:`repro.protocols`; the Hop-specific machinery lives here — update
and token queues, the iteration-gap theory (Theorems 1 & 2), backup
workers, bounded staleness, iteration skipping, and the NOTIFY-ACK
baseline.

Public API::

    from repro.core import HopCluster, HopConfig, backup_config
    from repro.graphs import ring_based
    from repro.ml import build_svm, synthetic_webspam
    from repro.ml.optim import SGD
    import numpy as np

    dataset = synthetic_webspam(np.random.default_rng(0))
    cluster = HopCluster(
        topology=ring_based(16),
        config=backup_config(n_backup=1, max_ig=4),
        model_factory=lambda rng: build_svm(rng, 128),
        dataset=dataset,
        optimizer=SGD(lr=1.0, momentum=0.9, weight_decay=1e-7),
        max_iter=100,
    )
    run = cluster.run()
    print(run.summary())
"""

from repro.core.cluster import HopCluster
from repro.core.config import (
    STANDARD,
    HopConfig,
    SkipConfig,
    backup_config,
    staleness_config,
)
from repro.core.gap import (
    GapTracker,
    backup_bound,
    gap_bound_matrix,
    notify_ack_bound,
    staleness_bound,
    theorem1_bound,
    token_queue_bound,
    token_queue_capacity_bound,
    update_queue_capacity_bound,
)
from repro.core.queues import (
    RotatingUpdateQueue,
    TokenGate,
    TokenQueue,
    UpdateQueue,
)
from repro.core.recv import (
    BackupRecv,
    RecvStrategy,
    StalenessRecv,
    StandardRecv,
    make_recv_strategy,
)
from repro.core.reducers import (
    mean_reduce,
    staleness_weighted_reduce,
    weighted_reduce,
)
from repro.core.skip import JumpDecision, SkipPolicy
from repro.core.update import Update
from repro.core.worker import ClusterState, HopWorker

__all__ = [
    "BackupRecv",
    "ClusterState",
    "GapTracker",
    "HopCluster",
    "HopConfig",
    "HopWorker",
    "JumpDecision",
    "RecvStrategy",
    "RotatingUpdateQueue",
    "STANDARD",
    "SkipConfig",
    "SkipPolicy",
    "StalenessRecv",
    "StandardRecv",
    "TokenGate",
    "TokenQueue",
    "Update",
    "UpdateQueue",
    "backup_bound",
    "backup_config",
    "gap_bound_matrix",
    "make_recv_strategy",
    "mean_reduce",
    "notify_ack_bound",
    "staleness_bound",
    "staleness_config",
    "staleness_weighted_reduce",
    "theorem1_bound",
    "token_queue_bound",
    "token_queue_capacity_bound",
    "update_queue_capacity_bound",
    "weighted_reduce",
]
