"""Ablations: design choices the paper discusses but does not plot.

Six studies, each a :class:`~repro.harness.study.Study` whose
:class:`~repro.harness.study.FigureResult` the benchmark harness
asserts:

* **Eq. (2) vs simple averaging** of stale updates (Section 4.4's
  "found the latter performs slightly better").
* **Parallel vs serial computation graph** (Section 3.2's execution
  vs. statistical efficiency trade-off).
* **max_ig sweep** — Theorem 2's gap/memory/tolerance trade-off.
* **Rotating vs tagged update queues** (Section 6.1) — identical
  observable behavior; the rotating implementation is the
  memory-bounded one.
* **Hop vs AD-PSGD** (Section 5's discussion of why Hop keeps bounded
  gaps instead of adopting AD-PSGD's unbounded asynchrony).
* **Randomized vs static partial-all-reduce groups** (Prague,
  arXiv:1909.08029: randomized regrouping is what mixes parameters
  across the cluster; static groups keep the group-local barrier but
  never exchange information between groups).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.config import (
    HopConfig,
    backup_config,
    staleness_config,
)
from repro.graphs import bipartite_ring
from repro.harness.results import final_smoothed_loss
from repro.harness.spec import RANDOM_6X, deterministic_straggler
from repro.harness.study import Study

_STRAGGLER_4X = deterministic_straggler(worker=0, factor=4.0)
_FLAVORS = (("eq2_weighted", "weighted"), ("uniform", "uniform"))


def _stale_reduce_cells(ctx):
    replicates = 2 if ctx.preset == "smoke" else 3
    return ctx.grid(
        {
            f"{label}@{ctx.seed + i}": dict(
                config=staleness_config(
                    staleness=5, max_ig=8, stale_reduce=flavor
                ),
                seed=ctx.seed + i,
            )
            for i in range(replicates)
            for label, flavor in _FLAVORS
        },
        scenario=RANDOM_6X,
    )


def _stale_reduce_report(ctx, result, runs):
    losses: Dict[str, list] = {"eq2_weighted": [], "uniform": []}
    wall_times: Dict[str, list] = {"eq2_weighted": [], "uniform": []}
    for key, run in runs.items():
        label = key.split("@")[0]
        losses[label].append(final_smoothed_loss(run))
        wall_times[label].append(run.wall_time)
    for label in ("eq2_weighted", "uniform"):
        result.rows.append(
            {
                "reduce": label,
                "mean_final_loss": float(np.mean(losses[label])),
                "loss_per_seed": "/".join(f"{v:.3f}" for v in losses[label]),
                "wall_time": float(np.mean(wall_times[label])),
            }
        )
    weighted = float(np.mean(losses["eq2_weighted"]))
    uniform = float(np.mean(losses["uniform"]))
    result.check(
        "identical timing (aggregation does not change waiting)",
        np.allclose(wall_times["eq2_weighted"], wall_times["uniform"]),
        "",
    )
    result.check(
        "Eq. (2) comparable to simple averaging across seeds "
        "(paper: slightly better, and notes the formula is not optimized)",
        weighted <= uniform * 1.10,
        f"weighted={weighted:.3f} uniform={uniform:.3f}",
    )


def _computation_graph_cells(ctx):
    return ctx.grid({
        label: dict(config=HopConfig(computation_graph=label))
        for label in ("parallel", "serial")
    })


def _computation_graph_report(ctx, result, runs):
    for label in ("parallel", "serial"):
        result.rows.append(
            {
                "graph": label,
                "wall_time": runs[label].wall_time,
                "iter_rate": runs[label].iteration_rate(),
                "final_loss": final_smoothed_loss(runs[label]),
            }
        )
    result.check(
        "parallel iterations at least as fast (Compute overlaps Reduce)",
        runs["parallel"].wall_time <= runs["serial"].wall_time * 1.01,
        f"parallel={runs['parallel'].wall_time:.1f}s "
        f"serial={runs['serial'].wall_time:.1f}s",
    )
    result.check(
        "serial statistical efficiency no worse (exact gradients)",
        final_smoothed_loss(runs["serial"])
        <= final_smoothed_loss(runs["parallel"]) * 1.15,
        "",
    )


def _max_ig_cells(ctx):
    return ctx.grid(
        {
            max_ig: dict(config=backup_config(n_backup=1, max_ig=max_ig))
            for max_ig in (1, 2, 4, 8)
        },
        scenario=_STRAGGLER_4X,
    )


def _max_ig_report(ctx, result, runs):
    walls: Dict[int, float] = {}
    for max_ig, run in runs.items():
        walls[max_ig] = run.wall_time
        result.rows.append(
            {
                "max_ig": max_ig,
                "wall_time": run.wall_time,
                "max_gap": run.gap.max_observed(),
                "final_loss": final_smoothed_loss(run),
            }
        )
        result.check(
            f"max_ig={max_ig}: observed gap within Theorem 2's adjacent bound",
            run.gap.max_observed() <= max_ig * ctx.topology.diameter(),
            f"gap={run.gap.max_observed():g}",
        )
    result.check(
        "larger max_ig tolerates the straggler longer (weakly faster)",
        walls[8] <= walls[1] + 1e-9,
        f"wall(1)={walls[1]:.1f}s wall(8)={walls[8]:.1f}s",
    )


def _queue_impl_cells(ctx):
    return ctx.grid(
        {
            impl: dict(config=HopConfig(queue_impl=impl, max_ig=4))
            for impl in ("rotating", "tagged")
        },
        scenario=RANDOM_6X,
    )


def _queue_impl_report(ctx, result, runs):
    for impl in ("rotating", "tagged"):
        result.rows.append(
            {
                "impl": impl,
                "wall_time": runs[impl].wall_time,
                "final_loss": final_smoothed_loss(runs[impl]),
                "max_gap": runs[impl].gap.max_observed(),
            }
        )
    result.check(
        "identical wall-clock behavior",
        abs(runs["rotating"].wall_time - runs["tagged"].wall_time) < 1e-9,
        "",
    )
    result.check(
        "identical training outcome (bit-for-bit final parameters)",
        bool(
            np.array_equal(
                runs["rotating"].final_params, runs["tagged"].final_params
            )
        ),
        "",
    )


def _vs_adpsgd_cells(ctx):
    return ctx.grid(
        {
            "hop": dict(config=backup_config(n_backup=1, max_ig=4)),
            "adpsgd": dict(protocol="adpsgd", topology=bipartite_ring(ctx.n)),
        },
        scenario=RANDOM_6X,
    )


def _vs_adpsgd_report(ctx, result, runs):
    hop, adpsgd = runs["hop"], runs["adpsgd"]
    for label, run in (("hop/backup", hop), ("adpsgd", adpsgd)):
        result.rows.append(
            {
                "protocol": label,
                "wall_time": run.wall_time,
                "iter_rate": run.iteration_rate(),
                "final_loss": final_smoothed_loss(run),
                "max_gap": run.gap.max_observed(),
                "accuracy": run.final_accuracy,
            }
        )
    result.check(
        "Hop's gap stays bounded while AD-PSGD's is unconstrained",
        hop.gap.max_observed() <= adpsgd.gap.max_observed() + 8,
        f"hop={hop.gap.max_observed():g} adpsgd={adpsgd.gap.max_observed():g}",
    )
    result.check(
        "both converge",
        final_smoothed_loss(hop) < 1.0 and final_smoothed_loss(adpsgd) < 1.0,
        "",
    )


def _partial_groups_cells(ctx):
    return ctx.grid(
        {"randomized": dict(static_groups=False), "static": dict(static_groups=True)},
        protocol="partial-allreduce",
        scenario=_STRAGGLER_4X,
    )


def _partial_groups_report(ctx, result, runs):
    from repro.protocols.partial_allreduce import GroupSchedule

    for label, run in runs.items():
        result.rows.append(
            {
                "groups": label,
                "wall_time": run.wall_time,
                "consensus": run.consensus,
                "final_loss": final_smoothed_loss(run),
                "max_gap": run.gap.max_observed(),
            }
        )

    schedule = GroupSchedule(ctx.n, group_size=4, seed=ctx.seed)
    conflict_free = True
    try:
        for k in range(ctx.max_iter):
            GroupSchedule.validate_partition(
                schedule.groups_for_round(k), ctx.n
            )
    except ValueError:
        conflict_free = False
    result.check(
        "group generation is conflict-free every round",
        conflict_free,
        f"{ctx.max_iter} rounds validated",
    )
    result.check(
        "randomized regrouping mixes globally (consensus distance "
        "well below static groups)",
        runs["randomized"].consensus < runs["static"].consensus * 0.75,
        f"randomized={runs['randomized'].consensus:.4f} "
        f"static={runs['static'].consensus:.4f}",
    )
    result.check(
        "randomization is (nearly) free on wall-clock "
        "(same group-local barrier structure)",
        runs["randomized"].wall_time <= runs["static"].wall_time * 1.25,
        f"randomized={runs['randomized'].wall_time:.1f}s "
        f"static={runs['static'].wall_time:.1f}s",
    )
    result.check(
        "both variants converge",
        final_smoothed_loss(runs["randomized"]) < 1.0
        and final_smoothed_loss(runs["static"]) < 1.0,
        "",
    )


ALL_ABLATIONS: Dict[str, Study] = {
    "stale_reduce": Study(
        "ablation_stale_reduce",
        "Staleness aggregation: Eq. (2) weighting vs simple average "
        "({workload}, 6x random slowdown)",
        _stale_reduce_cells, _stale_reduce_report,
    ),
    "computation_graph": Study(
        "ablation_computation_graph",
        "Parallel vs serial computation graph ({workload})",
        _computation_graph_cells, _computation_graph_report, workload="svm",
    ),
    "max_ig": Study(
        "ablation_max_ig",
        "max_ig sweep under a 4x straggler ({workload}, backup mode)",
        _max_ig_cells, _max_ig_report, workload="svm",
    ),
    "queue_impl": Study(
        "ablation_queue_impl",
        "Rotating (Sec 6.1) vs tagged update-queue implementations "
        "({workload}, 6x random slowdown)",
        _queue_impl_cells, _queue_impl_report, workload="svm",
    ),
    "vs_adpsgd": Study(
        "ablation_vs_adpsgd",
        "Hop (backup) vs AD-PSGD under 6x random slowdown ({workload})",
        _vs_adpsgd_cells, _vs_adpsgd_report, workload="svm",
        notes=(
            "AD-PSGD requires a bipartite graph (even ring here); Hop runs on "
            "the denser ring-based graph. The point of this ablation is the "
            "graph-freedom and gap-control trade-off discussed in Section 5."
        ),
    ),
    "partial_groups": Study(
        "ablation_partial_groups",
        "Partial all-reduce: randomized vs static groups "
        "({workload}, 4x straggler)",
        _partial_groups_cells, _partial_groups_report, workload="svm",
    ),
}
