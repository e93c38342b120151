#!/usr/bin/env python3
"""Scenario tour: the scenario engine end to end.

Walks the scenario registry's main tricks on one Hop deployment:

1. sweep the slowdown families (random, bursty Markov stragglers,
   tiered hardware, diurnal interference) and compare degradation,
2. inject a crash-restart fault and read the recovery lifecycle out of
   the run's stats (Section 3.4's "accidental node crashes"),
3. record a bursty run's slowdown factors to a JSON trace and replay
   them bit-exactly — trace-driven heterogeneity for regression work.

Usage::

    python examples/scenario_tour.py [--preset smoke|bench|paper]
"""

import argparse
import tempfile
from pathlib import Path

from repro.core.config import backup_config
from repro.graphs import ring_based
from repro.harness.report import render_table
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import svm_workload
from repro.scenarios import (
    MarkovSlowdown,
    ScenarioSpec,
    record_run_factors,
    registered_scenarios,
)
from repro.sim import RngStreams


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset", default="smoke", choices=("smoke", "bench", "paper")
    )
    args = parser.parse_args()

    workload = svm_workload(args.preset)
    n = 8 if args.preset == "smoke" else 16
    iters = {"smoke": 16, "bench": 40, "paper": 120}[args.preset]
    base = ExperimentSpec(
        name="tour",
        workload=workload,
        topology=ring_based(n),
        protocol="hop",
        config=backup_config(n_backup=1, max_ig=4),
        max_iter=iters,
        seed=0,
    )

    print("registered scenario families:", ", ".join(registered_scenarios()))
    print()

    # 1. Slowdown-family sweep -----------------------------------------
    rows = []
    clean_wall = None
    for family in ("none", "random", "bursty", "tiered", "diurnal"):
        run = run_spec(base.with_(scenario=ScenarioSpec(family)))
        if family == "none":
            clean_wall = run.wall_time
        rows.append(
            {
                "scenario": family,
                "wall_time": run.wall_time,
                "degradation": run.wall_time / clean_wall,
                "final_loss": run.final_loss,
            }
        )
    print("Scenario sweep (hop/backup):")
    print(render_table(rows))
    print()

    # 2. Crash-restart fault injection ---------------------------------
    crash = base.with_(
        scenario=ScenarioSpec(
            "crash-restart",
            {"worker": 2, "at": iters // 3, "downtime_iters": 6.0},
        )
    )
    run = run_spec(crash)
    print("Crash-restart lifecycle (worker 2 goes dark, then re-syncs):")
    for event in run.fault_events:
        print(
            f"  t={event['time']:.2f}s  {event['kind']:<10} "
            f"worker {event['worker']} (iteration {event['iteration']})"
        )
    print(
        f"  all workers completed {min(run.iterations_completed)}/"
        f"{iters} iterations; max gap {run.gap.max_observed():g}"
    )
    print()

    # 3. Trace record -> replay ----------------------------------------
    bursty = MarkovSlowdown(RngStreams(0).spawn("slowdown"), factor=6.0)
    trace = record_run_factors(bursty, n_workers=n, max_iter=iters)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bursty-trace.json"
        trace.save(path)
        replayed = run_spec(
            base.with_(scenario=ScenarioSpec("trace", {"path": str(path)}))
        )
    print(
        "Trace replay: recorded the bursty factors to JSON and replayed "
        "them bit-exactly."
    )
    print(
        f"  replay wall_time={replayed.wall_time:.3f}s "
        f"final_loss={replayed.final_loss:.4f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
