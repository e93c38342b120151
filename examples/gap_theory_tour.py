#!/usr/bin/env python3
"""A guided tour of the paper's iteration-gap theory (Theorems 1 & 2).

The paper's analytical core is that decentralized workers drift apart
in iteration space, and how far is governed by graph structure and the
synchronization mechanism. This example makes the theory tangible:

1. prints Table 1's bounds for a concrete graph,
2. runs each protocol setting with a straggler and compares the
   *observed* maximum gaps against the bounds,
3. demonstrates the crash blast-radius corollary: when a worker dies,
   its neighbors advance exactly ``max_ig`` more iterations.

Usage::

    python examples/gap_theory_tour.py
"""

import numpy as np

from repro.core import (
    HopCluster,
    HopConfig,
    STANDARD,
    backup_config,
    gap_bound_matrix,
    staleness_config,
)
from repro.graphs import chain, ring_based
from repro.harness.report import render_table
from repro.harness.spec import (
    ExperimentSpec,
    deterministic_straggler,
    run_spec,
)
from repro.harness.workloads import svm_workload
from repro.scenarios.models import ComputeModel
from repro.ml import build_svm, synthetic_webspam
from repro.ml.optim import SGD
from repro.scenarios import CrashEvent


def part1_table1_bounds() -> None:
    print("== Part 1: Table 1's bounds on a chain of 5 workers ==\n")
    topology = chain(5)
    interesting_pair = (4, 0)  # the two endpoints
    rows = []
    for setting, kwargs in (
        ("standard", {}),
        ("notify_ack", {}),
        ("standard+tokens", {"max_ig": 2}),
        ("backup+tokens", {"max_ig": 3}),
        ("staleness+tokens", {"max_ig": 4, "staleness": 2}),
    ):
        bounds = gap_bound_matrix(topology, setting, **kwargs)
        i, j = interesting_pair
        rows.append(
            {
                "setting": setting,
                "bound Iter(4)-Iter(0)": bounds[i, j],
                "max bound any pair": float(
                    np.max(bounds[np.isfinite(bounds)])
                ),
            }
        )
    print(render_table(rows))
    print()


def part2_observed_vs_theory() -> None:
    print("== Part 2: observed gaps vs theory (6x straggler at worker 0) ==\n")
    workload = svm_workload("smoke")
    topology = chain(5)
    settings = {
        "standard (no tokens)": (HopConfig(use_token_queues=False), "hop",
                                 ("standard", {})),
        "standard+tokens(2)": (HopConfig(max_ig=2), "hop",
                               ("standard+tokens", {"max_ig": 2})),
        "notify_ack": (STANDARD, "notify_ack", ("notify_ack", {})),
        "backup+tokens(3)": (backup_config(1, 3), "hop",
                             ("backup+tokens", {"max_ig": 3})),
        "staleness+tokens(2,4)": (
            staleness_config(2, 4),
            "hop",
            ("staleness+tokens", {"max_ig": 4, "staleness": 2}),
        ),
    }
    rows = []
    for label, (config, protocol, (setting, kwargs)) in settings.items():
        run = run_spec(
            ExperimentSpec(
                label,
                workload,
                topology,
                protocol=protocol,
                config=config,
                scenario=deterministic_straggler(0, 6.0),
                max_iter=24,
                seed=0,
            )
        )
        bounds = gap_bound_matrix(topology, setting, **kwargs)
        finite = bounds[np.isfinite(bounds)]
        rows.append(
            {
                "setting": label,
                "observed_max_gap": run.gap.max_observed(),
                "theory_max": float(finite.max()),
                "violations": len(run.gap.violations(bounds)),
            }
        )
    print(render_table(rows))
    print("\nEvery observed gap is within its bound; looser settings")
    print("visibly exploit their slack to outrun the straggler.\n")


def part3_crash_blast_radius() -> None:
    print("== Part 3: crash blast radius == \n")
    max_ig, crash_iteration = 3, 5
    n = 6
    dataset = synthetic_webspam(
        np.random.default_rng(0), n_train=256, n_test=64, n_features=16
    )
    cluster = HopCluster(
        topology=ring_based(n),
        config=backup_config(n_backup=1, max_ig=max_ig),
        model_factory=lambda rng: build_svm(rng, 16),
        dataset=dataset,
        optimizer=SGD(lr=0.5, momentum=0.9),
        compute_model=ComputeModel(base_time=0.05, n_workers=n),
        max_iter=50,
        seed=0,
        crash_events={0: CrashEvent(worker=0, at_iteration=crash_iteration)},
    )
    run = cluster.run()
    print(
        f"worker 0 crashed at iteration {crash_iteration}; max_ig = {max_ig}"
    )
    print(f"iterations completed per worker: {run.iterations_completed}")
    print(
        "neighbors stopped at exactly crash + max_ig = "
        f"{crash_iteration + max_ig} "
        "(Theorem 2's containment guarantee)"
    )


def main() -> None:
    part1_table1_bounds()
    part2_observed_vs_theory()
    part3_crash_blast_radius()


if __name__ == "__main__":
    main()
