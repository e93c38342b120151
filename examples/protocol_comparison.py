#!/usr/bin/env python3
"""Protocol shoot-out: every protocol in the registry, head to head.

Runs the SVM workload under identical conditions on:

* Hop (standard, and backup-worker variants),
* NOTIFY-ACK (the serial + ACK-gated protocol Hop improves on),
* a BSP parameter server (with its NIC hotspot),
* an async parameter server and SSP,
* synchronous ring all-reduce,
* AD-PSGD (bipartite asynchronous gossip),
* Prague-style partial all-reduce (randomized conflict-free groups,
  arXiv:1909.08029) plus its static-group ablation,
* momentum-tracking gossip (arXiv:2209.15505) and its quasi-global
  momentum variant (arXiv:2102.04761),

in both a homogeneous cluster and one with the paper's 6x random
slowdown, and prints the full comparison table.

Usage::

    python examples/protocol_comparison.py [--preset smoke|bench|paper]
"""

import argparse

from repro.core.config import STANDARD, backup_config
from repro.graphs import bipartite_ring, ring_based
from repro.harness.report import render_table
from repro.harness.spec import RANDOM_6X, ExperimentSpec, run_spec
from repro.harness.workloads import svm_workload
from repro.scenarios import ScenarioSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset", default="smoke", choices=("smoke", "bench", "paper")
    )
    args = parser.parse_args()

    workload = svm_workload(args.preset)
    n = 16 if args.preset != "smoke" else 8
    iters = {"smoke": 20, "bench": 40, "paper": 120}[args.preset]
    topology = ring_based(n)

    contenders = [
        ("hop/standard", dict(protocol="hop", config=STANDARD)),
        (
            "hop/backup(1)",
            dict(protocol="hop", config=backup_config(n_backup=1, max_ig=4)),
        ),
        ("notify_ack", dict(protocol="notify_ack")),
        ("ps-bsp", dict(protocol="ps-bsp")),
        ("ps-async", dict(protocol="ps-async")),
        ("ps-ssp(3)", dict(protocol="ps-ssp", ps_staleness=3)),
        ("allreduce", dict(protocol="allreduce")),
        (
            "adpsgd",
            dict(protocol="adpsgd", topology_override=bipartite_ring(n)),
        ),
        ("partial-allreduce", dict(protocol="partial-allreduce")),
        (
            "partial-allreduce/static",
            dict(protocol="partial-allreduce", static_groups=True),
        ),
        (
            "momentum-tracking",
            dict(
                protocol="momentum-tracking",
                topology_override=bipartite_ring(n),
            ),
        ),
        (
            "momentum-tracking/qg",
            dict(
                protocol="momentum-tracking",
                momentum_mode="quasi-global",
                topology_override=bipartite_ring(n),
            ),
        ),
    ]

    for env_label, scenario in (
        ("homogeneous", ScenarioSpec()),
        ("random 6x slowdown", RANDOM_6X),
    ):
        rows = []
        for label, options in contenders:
            options = dict(options)
            topo = options.pop("topology_override", topology)
            spec = ExperimentSpec(
                name=label,
                workload=workload,
                topology=topo,
                scenario=scenario,
                max_iter=iters,
                seed=5,
                **options,
            )
            run = run_spec(spec)
            rows.append(
                {
                    "protocol": label,
                    "wall_time": run.wall_time,
                    "iter_rate": run.iteration_rate(),
                    "time_to_target": run.time_to_loss(workload.target_loss),
                    "final_loss": run.final_loss,
                    "accuracy": run.final_accuracy,
                    "max_gap": run.gap.max_observed(),
                }
            )
            print(f"  done: {label} ({env_label})")
        rows.sort(key=lambda row: row["wall_time"])
        print()
        print(render_table(rows, title=f"== {env_label} =="))
        print()


if __name__ == "__main__":
    main()
