#!/usr/bin/env python3
"""Heterogeneity study: how each Hop mechanism handles each slowdown.

Sweeps the paper's two heterogeneity recipes (random 6x, deterministic
4x straggler) across four protocol variants (standard, backup workers,
bounded staleness, backup + skipping) on the CNN workload, and prints a
matrix of wall-clock times, iteration rates and loss curves.

This is the scenario the paper's introduction motivates: you have a
cluster where machines intermittently slow down (resource sharing) or
one machine is persistently slower (older hardware), and you need to
pick a protocol.

Usage::

    python examples/heterogeneity_study.py [--preset smoke|bench|paper]
"""

import argparse

from repro.core.config import STANDARD, SkipConfig, backup_config, staleness_config
from repro.graphs import ring_based
from repro.harness.report import render_series_table, render_table
from repro.harness.results import binned_loss_curve
from repro.harness.spec import (
    RANDOM_6X,
    ExperimentSpec,
    deterministic_straggler,
    run_spec,
)
from repro.harness.workloads import cnn_workload
from repro.scenarios import ScenarioSpec


CONFIGS = {
    "standard": STANDARD,
    "backup(1)": backup_config(n_backup=1, max_ig=4),
    "staleness(5)": staleness_config(staleness=5, max_ig=8),
    "backup+skip(10)": backup_config(
        n_backup=1, max_ig=5, skip=SkipConfig(max_skip=10, trigger_lag=2)
    ),
}

SCENARIOS = {
    "none": ScenarioSpec(),
    "random 6x": RANDOM_6X,
    "straggler 4x": deterministic_straggler(worker=0, factor=4.0),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset", default="smoke", choices=("smoke", "bench", "paper")
    )
    args = parser.parse_args()

    workload = cnn_workload(args.preset)
    n = 16 if args.preset != "smoke" else 8
    iters = {"smoke": 20, "bench": 40, "paper": 120}[args.preset]
    topology = ring_based(n)

    rows = []
    curves = {}
    for slow_label, scenario in SCENARIOS.items():
        for config_label, config in CONFIGS.items():
            spec = ExperimentSpec(
                name=f"{config_label}/{slow_label}",
                workload=workload,
                topology=topology,
                config=config,
                scenario=scenario,
                max_iter=iters,
                seed=11,
            )
            run = run_spec(spec)
            rows.append(
                {
                    "slowdown": slow_label,
                    "config": config_label,
                    "wall_time": run.wall_time,
                    "iter_rate": run.iteration_rate(),
                    "max_gap": run.gap.max_observed(),
                    "skipped": sum(run.iterations_skipped),
                    "accuracy": run.final_accuracy,
                }
            )
            if slow_label != "none":
                curves[f"{config_label}/{slow_label}"] = binned_loss_curve(run)
            print(f"  done: {config_label:16s} under {slow_label}")

    print()
    print(render_table(rows, title="Protocol x heterogeneity matrix (CNN)"))
    print()
    print("Loss-vs-time curves under heterogeneity:")
    print(render_series_table(curves, n_points=6))
    print()
    print(
        "Reading guide: under 'random 6x', backup workers and staleness\n"
        "recover most of the lost iteration rate; under 'straggler 4x',\n"
        "only skipping keeps the straggler from gating the whole graph."
    )


if __name__ == "__main__":
    main()
