#!/usr/bin/env python3
"""Quickstart: train a model with Hop on a simulated 16-worker cluster.

Runs standard decentralized training on a ring-based graph, then the
same workload with one backup worker under the paper's random-slowdown
recipe, and prints the comparison.

Usage::

    python examples/quickstart.py
"""

import numpy as np

from repro.core import HopCluster, STANDARD, backup_config
from repro.graphs import ring_based
from repro.scenarios.models import ComputeModel, RandomSlowdown
from repro.ml import build_svm, synthetic_webspam
from repro.ml.optim import SGD
from repro.sim import RngStreams


def main() -> None:
    n_workers = 16
    topology = ring_based(n_workers)
    dataset = synthetic_webspam(
        np.random.default_rng(0), n_train=2048, n_test=512, n_features=128
    )

    def make_cluster(config, with_slowdown):
        slowdown = (
            RandomSlowdown(RngStreams(7), factor=6.0, probability=1 / n_workers)
            if with_slowdown
            else None
        )
        return HopCluster(
            topology=topology,
            config=config,
            model_factory=lambda rng: build_svm(rng, 128),
            dataset=dataset,
            optimizer=SGD(lr=1.0, momentum=0.9, weight_decay=1e-7),
            compute_model=ComputeModel(
                base_time=0.2, n_workers=n_workers, slowdown=slowdown
            ),
            batch_size=128,
            max_iter=100,
            seed=7,
        )

    print("== Hop quickstart: SVM on synthetic webspam, 16 workers ==\n")

    print("1) Standard decentralized training (homogeneous cluster)")
    clean = make_cluster(STANDARD, with_slowdown=False).run()
    print(clean.summary(), "\n")

    print("2) Standard decentralized training + 6x random slowdown")
    slow = make_cluster(STANDARD, with_slowdown=True).run()
    print(slow.summary(), "\n")

    print("3) Hop with one backup worker + the same slowdown")
    backup = make_cluster(backup_config(n_backup=1, max_ig=4),
                          with_slowdown=True).run()
    print(backup.summary(), "\n")

    speedup = slow.wall_time / backup.wall_time
    print(
        f"Backup workers recover {speedup:.2f}x of the wall-clock time lost "
        "to stragglers\n"
        f"(clean={clean.wall_time:.1f}s, slowed={slow.wall_time:.1f}s, "
        f"hop-backup={backup.wall_time:.1f}s; all runs: {clean.max_iter} "
        "iterations/worker)"
    )


if __name__ == "__main__":
    main()
