"""The paper's evaluation as a table of studies.

One :class:`~repro.harness.study.Study` per figure/table in Section 7
(plus Table 1 and the extension figures 22-26).  Each builds the
training configurations the figure compares, packages the rows/series
the paper plots, and evaluates the *shape checks* — the qualitative
claims that must hold for the reproduction (who wins, by roughly what
factor, where the crossovers fall).

Benchmarks call ``ALL_FIGURES[id]("bench")`` and assert
``result.passed()``; EXPERIMENTS.md records their rendered output.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.core.config import (
    STANDARD,
    HopConfig,
    SkipConfig,
    backup_config,
    staleness_config,
)
from repro.core.gap import gap_bound_matrix
from repro.graphs import (
    FIG21_MACHINE_OF_WORKER,
    bipartite_ring,
    chain,
    double_ring,
    fig21_setting1,
    fig21_setting2,
    fig21_setting3,
    ring,
    ring_based,
    spectral_gap,
)
from repro.harness.results import (
    binned_loss_curve,
    binned_loss_vs_steps,
    compare_runs,
    final_smoothed_loss,
    iteration_rate_speedup,
    straggler_slowdown_ratio,
    wall_time_speedup,
)
from repro.harness.spec import (
    RANDOM_6X,
    deterministic_straggler,
    run_spec,
)
from repro.harness.study import Study, cross
from repro.compression import CompressionSpec
from repro.net.links import Link, cluster_links, uniform_links
from repro.protocols import registered_protocols
from repro.protocols.base import LIGHT_TRACE
from repro.scenarios import ScenarioSpec, registered_scenarios

#: Hop's backup mode as the comparisons run it.
_BACKUP = backup_config(n_backup=1, max_ig=4)
_CLEAN_SLOW = {"clean": {}, "slowdown": dict(scenario=RANDOM_6X)}
_FIG21_SETTINGS = {
    "setting1": fig21_setting1,
    "setting2": fig21_setting2,
    "setting3": fig21_setting3,
}


def _contenders(ctx, labels) -> Dict[str, dict]:
    """Protocol options by label; gossip needs the bipartite even ring."""
    gossip = bipartite_ring(ctx.n)
    options = {
        "hop/backup": dict(protocol="hop", config=_BACKUP),
        "notify-ack": dict(protocol="notify_ack"),
        "adpsgd": dict(protocol="adpsgd", topology=gossip),
        "momentum-tracking": dict(protocol="momentum-tracking", topology=gossip),
        "partial-allreduce": dict(protocol="partial-allreduce"),
        "allreduce": dict(protocol="allreduce"),
        "ps-bsp": dict(protocol="ps-bsp"),
        "ps-async": dict(protocol="ps-async"),
        "ps-ssp": dict(protocol="ps-ssp", ps_staleness=2),
    }
    return {label: options[label] for label in labels}


# ----------------------------------------------------------------------
# Figure 12: effect of heterogeneity across graph densities
# ----------------------------------------------------------------------
def _fig12_cells(ctx):
    graphs = {
        "ring": dict(topology=ring(ctx.n)),
        "ring_based": {},
        "double_ring": dict(topology=double_ring(ctx.n)),
    }
    return ctx.grid(cross(graphs, _CLEAN_SLOW))


def _fig12_report(ctx, result, runs):
    ratios = {}
    for label in ("ring", "ring_based", "double_ring"):
        clean, slow = runs[f"{label}/clean"], runs[f"{label}/slowdown"]
        ratio = slow.wall_time / clean.wall_time
        ratios[label] = ratio
        result.rows.append(
            {
                "graph": label,
                "clean_wall": clean.wall_time,
                "slow_wall": slow.wall_time,
                "slowdown_ratio": ratio,
                "clean_loss": final_smoothed_loss(clean),
                "slow_loss": final_smoothed_loss(slow),
            }
        )
        result.check(
            f"{label}: random slowdown hurts wall-clock",
            ratio > 1.05,
            f"ratio={ratio:.2f}",
        )
    result.check(
        "sparser graph (ring) degrades no more than densest (double_ring)",
        ratios["ring"] <= ratios["double_ring"] * 1.05,
        f"ring={ratios['ring']:.2f} double_ring={ratios['double_ring']:.2f}",
    )


# ----------------------------------------------------------------------
# Figure 13: decentralized vs parameter server
# ----------------------------------------------------------------------
def _fig13_cells(ctx):
    return ctx.grid({
        "hop/clean": {},
        "hop/slowdown": dict(scenario=RANDOM_6X),
        "ps-bsp/clean": dict(protocol="ps-bsp"),
    })


def _fig13_report(ctx, result, runs):
    target = ctx.workload.target_loss
    result.rows = compare_runs(runs, target_loss=target, baseline="ps-bsp/clean")
    result.check(
        "decentralized (clean) beats PS on wall-clock",
        runs["hop/clean"].wall_time < runs["ps-bsp/clean"].wall_time,
        f"hop={runs['hop/clean'].wall_time:.1f}s "
        f"ps={runs['ps-bsp/clean'].wall_time:.1f}s",
    )
    result.check(
        "decentralized even under slowdown beats homogeneous PS",
        runs["hop/slowdown"].wall_time < runs["ps-bsp/clean"].wall_time,
        f"hop-slow={runs['hop/slowdown'].wall_time:.1f}s "
        f"ps={runs['ps-bsp/clean'].wall_time:.1f}s",
    )
    t_hop = runs["hop/clean"].time_to_loss(target)
    t_ps = runs["ps-bsp/clean"].time_to_loss(target)
    result.check(
        "time-to-target favors decentralized",
        t_hop < t_ps,
        f"hop={t_hop:.1f}s ps={t_ps:.1f}s",
    )


# ----------------------------------------------------------------------
# Figures 14/15: backup workers, loss vs time and loss vs steps
# ----------------------------------------------------------------------
_BACKUP_GRAPHS = ("ring_based", "double_ring")


def _backup_cells(ctx):
    graphs = {"ring_based": {}, "double_ring": dict(topology=double_ring(ctx.n))}
    configs = {"standard": dict(config=STANDARD), "backup": dict(config=_BACKUP)}
    return ctx.grid(cross(graphs, configs), scenario=RANDOM_6X)


def _fig14_report(ctx, result, runs):
    for graph_label in _BACKUP_GRAPHS:
        standard = runs[f"{graph_label}/standard"]
        backup = runs[f"{graph_label}/backup"]
        speedup = wall_time_speedup(standard, backup)
        result.rows.append(
            {
                "graph": graph_label,
                "standard_wall": standard.wall_time,
                "backup_wall": backup.wall_time,
                "wall_speedup": speedup,
                "standard_loss": final_smoothed_loss(standard),
                "backup_loss": final_smoothed_loss(backup),
            }
        )
        result.check(
            f"{graph_label}: backup faster on wall-clock",
            speedup > 1.0,
            f"speedup={speedup:.2f}",
        )


def _fig15_report(ctx, result, runs):
    for graph_label in _BACKUP_GRAPHS:
        std_loss = final_smoothed_loss(runs[f"{graph_label}/standard"])
        bkp_loss = final_smoothed_loss(runs[f"{graph_label}/backup"])
        result.rows.append(
            {
                "graph": graph_label,
                "standard_final_loss": std_loss,
                "backup_final_loss": bkp_loss,
                "relative_penalty": (bkp_loss - std_loss) / max(std_loss, 1e-9),
            }
        )
        result.check(
            f"{graph_label}: per-step penalty small",
            bkp_loss <= std_loss * 1.35,
            f"standard={std_loss:.3f} backup={bkp_loss:.3f}",
        )


# ----------------------------------------------------------------------
# Figure 16: iteration-speed speedup from backup workers
# ----------------------------------------------------------------------
def _fig16_cells(ctx):
    return ctx.grid(
        {"standard": dict(config=STANDARD), "backup": dict(config=_BACKUP)},
        scenario=RANDOM_6X,
    )


def _fig16_report(ctx, result, runs):
    speedup = iteration_rate_speedup(runs["standard"], runs["backup"])
    for label, run in runs.items():
        result.rows.append(
            {
                "config": label,
                "iter_rate": run.iteration_rate(),
                "mean_iter_duration": run.mean_iteration_duration(),
                "wall_time": run.wall_time,
            }
        )
    result.rows.append({"config": "speedup", "iter_rate": speedup})
    result.check(
        "backup workers speed up iterations (paper: up to 1.81x)",
        speedup > 1.1,
        f"speedup={speedup:.2f}",
    )
    result.check(
        "speedup in a plausible band (1.1x - 2.5x)",
        1.1 < speedup < 2.5,
        f"speedup={speedup:.2f}",
    )


# ----------------------------------------------------------------------
# Figure 17: bounded staleness under random slowdown
# ----------------------------------------------------------------------
def _fig17_cells(ctx):
    return ctx.grid(
        {
            "standard": dict(config=STANDARD),
            "backup": dict(config=_BACKUP),
            "staleness": dict(config=staleness_config(staleness=5, max_ig=8)),
        },
        scenario=RANDOM_6X,
    )


def _fig17_report(ctx, result, runs):
    result.rows = compare_runs(
        runs, target_loss=ctx.workload.target_loss, baseline="standard"
    )
    stale_speedup = wall_time_speedup(runs["standard"], runs["staleness"])
    backup_speedup = wall_time_speedup(runs["standard"], runs["backup"])
    result.check(
        "staleness beats standard on wall-clock",
        stale_speedup > 1.0,
        f"speedup={stale_speedup:.2f}",
    )
    result.check(
        "staleness speedup comparable to backup workers",
        stale_speedup > 0.7 * backup_speedup,
        f"staleness={stale_speedup:.2f} backup={backup_speedup:.2f}",
    )


# ----------------------------------------------------------------------
# Figure 18: iteration duration with skipping, deterministic slowdown
# ----------------------------------------------------------------------
_STRAGGLER_4X = deterministic_straggler(worker=0, factor=4.0)


def _skip_config(max_skip: int) -> HopConfig:
    return backup_config(
        n_backup=1, max_ig=5, skip=SkipConfig(max_skip=max_skip, trigger_lag=2)
    )


def _fig18_cells(ctx):
    base_config = backup_config(n_backup=1, max_ig=5)
    return ctx.grid({
        "clean": dict(config=base_config),
        "straggler/no_skip": dict(config=base_config, scenario=_STRAGGLER_4X),
        "straggler/skip": dict(config=_skip_config(10), scenario=_STRAGGLER_4X),
    })


def _fig18_report(ctx, result, runs):
    no_skip_ratio = straggler_slowdown_ratio(
        runs["straggler/no_skip"], runs["clean"]
    )
    skip_ratio = straggler_slowdown_ratio(runs["straggler/skip"], runs["clean"])
    for label, run in runs.items():
        result.rows.append(
            {
                "setting": label,
                "mean_iter_duration": run.mean_iteration_duration(),
                "wall_time": run.wall_time,
                "skipped_total": sum(run.iterations_skipped),
            }
        )
    result.rows.append(
        {"setting": "slowdown_ratio/no_skip", "mean_iter_duration": no_skip_ratio}
    )
    result.rows.append(
        {"setting": "slowdown_ratio/skip", "mean_iter_duration": skip_ratio}
    )
    result.check(
        "without skipping the straggler gates the graph (paper: 3.9x)",
        no_skip_ratio > 2.0,
        f"ratio={no_skip_ratio:.2f}",
    )
    result.check(
        "with skipping the drag nearly vanishes (paper: ~1.1x)",
        skip_ratio < 1.6,
        f"ratio={skip_ratio:.2f}",
    )
    result.check(
        "skipping strictly reduces the drag",
        skip_ratio < no_skip_ratio,
        f"{skip_ratio:.2f} < {no_skip_ratio:.2f}",
    )
    result.check(
        "only the straggler skips iterations",
        sum(runs["straggler/skip"].iterations_skipped[1:]) == 0
        and runs["straggler/skip"].iterations_skipped[0] > 0,
        f"skipped={runs['straggler/skip'].iterations_skipped[0]}",
    )


# ----------------------------------------------------------------------
# Figure 19: skipping iterations, convergence on wall-clock
# ----------------------------------------------------------------------
def _fig19_cells(ctx):
    return ctx.grid(
        {
            "backup_only": dict(config=backup_config(n_backup=1, max_ig=5)),
            "skip_2": dict(config=_skip_config(2)),
            "skip_10": dict(config=_skip_config(10)),
        },
        scenario=_STRAGGLER_4X,
    )


def _fig19_report(ctx, result, runs):
    result.rows = compare_runs(
        runs, target_loss=ctx.workload.target_loss, baseline="backup_only"
    )
    speedup_10 = wall_time_speedup(runs["backup_only"], runs["skip_10"])
    result.check(
        "skip_10 beats plain backup workers",
        speedup_10 > 1.1,
        f"speedup={speedup_10:.2f}",
    )
    result.check(
        "skip_10 at least as fast as skip_2 (paper: 10 is fastest)",
        runs["skip_10"].wall_time <= runs["skip_2"].wall_time * 1.05,
        f"skip10={runs['skip_10'].wall_time:.1f}s "
        f"skip2={runs['skip_2'].wall_time:.1f}s",
    )
    result.check(
        "skipping does not break convergence",
        final_smoothed_loss(runs["skip_10"])
        <= final_smoothed_loss(runs["backup_only"]) * 1.35,
        "",
    )


# ----------------------------------------------------------------------
# Figures 20/21: topology design in a heterogeneous deployment
# ----------------------------------------------------------------------
def _fig20_cells(ctx):
    machine_of = FIG21_MACHINE_OF_WORKER
    links = cluster_links(
        machine_of,
        intra=Link(latency=2e-5, bandwidth=10_000.0),
        inter=Link(latency=2e-4, bandwidth=125.0),
    )
    # Machines hosting 3 workers are more loaded than the 2-worker one.
    crowded = {w for w in range(8) if machine_of[w] in (0, 1)}
    load = ScenarioSpec("straggler", {"workers": {w: 1.5 for w in crowded}})
    return ctx.grid(
        {label: dict(topology=build()) for label, build in _FIG21_SETTINGS.items()},
        config=STANDARD, scenario=load, links=links, machines=machine_of,
    )


def _fig20_report(ctx, result, runs):
    for label, build in _FIG21_SETTINGS.items():
        result.rows.append(
            {
                "setting": label,
                "spectral_gap": spectral_gap(build()),
                "wall_time": runs[label].wall_time,
                "iter_rate": runs[label].iteration_rate(),
                "final_loss": final_smoothed_loss(runs[label]),
            }
        )
    result.check(
        "machine-aware setting2 beats symmetric setting1 on wall-clock",
        runs["setting2"].wall_time < runs["setting1"].wall_time,
        f"s2={runs['setting2'].wall_time:.1f}s "
        f"s1={runs['setting1'].wall_time:.1f}s",
    )
    result.check(
        "machine-aware setting3 beats symmetric setting1 on wall-clock",
        runs["setting3"].wall_time < runs["setting1"].wall_time,
        f"s3={runs['setting3'].wall_time:.1f}s "
        f"s1={runs['setting1'].wall_time:.1f}s",
    )
    losses = [final_smoothed_loss(run) for run in runs.values()]
    result.check(
        "per-iteration convergence similar despite dissimilar spectral gaps",
        max(losses) <= min(losses) * 1.5 + 0.25,
        f"final losses: {[f'{v:.3f}' for v in losses]}",
    )


def _fig21_report(ctx, result, runs):
    gaps = {label: spectral_gap(build()) for label, build in _FIG21_SETTINGS.items()}
    paper = {"setting1": 0.6667, "setting2": 0.2682, "setting3": 0.2688}
    for label, gap in gaps.items():
        result.rows.append(
            {"setting": label, "spectral_gap": gap, "paper": paper[label]}
        )
    result.check(
        "setting1 matches the paper exactly (2/3)",
        abs(gaps["setting1"] - 2.0 / 3.0) < 1e-9,
        f"gap={gaps['setting1']:.4f}",
    )
    result.check(
        "machine-aware settings have much smaller gaps",
        gaps["setting2"] < gaps["setting1"] / 2
        and gaps["setting3"] < gaps["setting1"] / 2,
        f"s2={gaps['setting2']:.4f} s3={gaps['setting3']:.4f}",
    )
    result.check(
        "settings 2 and 3 have similar gaps to each other",
        abs(gaps["setting2"] - gaps["setting3"]) < 0.15,
        f"|s2-s3|={abs(gaps['setting2'] - gaps['setting3']):.4f}",
    )


# ----------------------------------------------------------------------
# Figure 22 (extension): registry-wide protocol comparison
# ----------------------------------------------------------------------
# Not a figure from the Hop paper: it compares Hop against the follow-up
# protocols the registry adds — Prague-style partial all-reduce
# [arXiv:1909.08029] and momentum-tracking gossip [arXiv:2209.15505] —
# plus the all-reduce and AD-PSGD baselines, using the paper's
# random-slowdown recipe.
_FIG22 = ("hop/backup", "allreduce", "partial-allreduce", "adpsgd",
          "momentum-tracking")


def _fig22_cells(ctx):
    return ctx.grid(cross(_contenders(ctx, _FIG22), _CLEAN_SLOW))


def _fig22_report(ctx, result, runs):
    ratios: Dict[str, float] = {}
    losses: Dict[str, float] = {}
    for label in _FIG22:
        clean = runs[f"{label}/clean"]
        slow = runs[f"{label}/slowdown"]
        result.series[label] = binned_loss_curve(slow)
        ratios[label] = slow.wall_time / clean.wall_time
        losses[label] = final_smoothed_loss(slow)
        result.rows.append(
            {
                "protocol": label,
                "clean_wall": clean.wall_time,
                "slow_wall": slow.wall_time,
                "degradation": ratios[label],
                "slow_loss": losses[label],
                "slow_accuracy": slow.final_accuracy,
                "bytes_per_iter": slow.bytes_sent / max(
                    sum(slow.iterations_completed), 1
                ),
            }
        )

    for label, loss in losses.items():
        result.check(
            f"{label} converges under slowdown",
            loss < 1.0,
            f"final_loss={loss:.3f}",
        )
    result.check(
        "partial all-reduce degrades less than global all-reduce "
        "(group-local vs global barrier)",
        ratios["partial-allreduce"] < ratios["allreduce"],
        f"partial={ratios['partial-allreduce']:.2f}x "
        f"allreduce={ratios['allreduce']:.2f}x",
    )
    result.check(
        "partial all-reduce beats global all-reduce on wall-clock "
        "under slowdown",
        runs["partial-allreduce/slowdown"].wall_time
        < runs["allreduce/slowdown"].wall_time,
        f"partial={runs['partial-allreduce/slowdown'].wall_time:.1f}s "
        f"allreduce={runs['allreduce/slowdown'].wall_time:.1f}s",
    )
    result.check(
        "momentum tracking does not hurt gossip convergence "
        "(paper: it helps on heterogeneous data)",
        losses["momentum-tracking"] <= losses["adpsgd"] * 1.25,
        f"mt={losses['momentum-tracking']:.3f} "
        f"adpsgd={losses['adpsgd']:.3f}",
    )


# ----------------------------------------------------------------------
# Figure 23 (extension): protocol x scenario-family grid
# ----------------------------------------------------------------------
# Not a figure from the Hop paper: it sweeps the scenario registry — the
# paper's random recipe plus bursty Markov stragglers [arXiv:1909.08029's
# regime], tiered hardware [arXiv:2005.14038's regime], diurnal
# interference and a crash-restart fault — across representative
# protocols, measuring degradation relative to each protocol's clean
# run.  The crash-restart column doubles as the Section 3.4 robustness
# demonstration: lifecycle events are surfaced and the blast radius must
# respect Theorem 2's bound.
_FIG23 = ("hop/backup", "allreduce", "adpsgd", "partial-allreduce")
_FIG23_FAMILIES = ("none", "random", "bursty", "tiered", "diurnal",
                   "crash-restart")


def _fig23_cells(ctx):
    scenarios = {
        family: dict(scenario=ScenarioSpec(family))
        for family in _FIG23_FAMILIES[:-1]
    }
    crash_iteration = max(1, ctx.max_iter // 4)
    scenarios["crash-restart"] = dict(scenario=ScenarioSpec(
        "crash-restart",
        {"worker": 1, "at": crash_iteration, "downtime_iters": 6.0},
    ))
    return ctx.grid(cross(_contenders(ctx, _FIG23), scenarios))


def _fig23_report(ctx, result, runs):
    degradation: Dict[str, Dict[str, float]] = {}
    for label in _FIG23:
        clean = runs[f"{label}/none"]
        row = {"protocol": label, "clean_wall": clean.wall_time}
        degradation[label] = {}
        for family in _FIG23_FAMILIES:
            run = runs[f"{label}/{family}"]
            ratio = run.wall_time / clean.wall_time
            degradation[label][family] = ratio
            if family != "none":
                row[family] = ratio
        row["worst_loss"] = max(
            final_smoothed_loss(runs[f"{label}/{family}"])
            for family in _FIG23_FAMILIES
        )
        result.rows.append(row)
    for family in _FIG23_FAMILIES:
        result.series[f"hop/{family}"] = binned_loss_curve(
            runs[f"hop/backup/{family}"]
        )

    for label in _FIG23:
        for family in _FIG23_FAMILIES:
            loss = final_smoothed_loss(runs[f"{label}/{family}"])
            result.check(
                f"{label} converges under {family}",
                loss < 1.0,
                f"final_loss={loss:.3f}",
            )
    result.check(
        "bounded-gap hop absorbs random slowdowns better than the "
        "global all-reduce barrier (the paper's core claim)",
        degradation["hop/backup"]["random"] < degradation["allreduce"]["random"],
        f"hop={degradation['hop/backup']['random']:.2f}x "
        f"allreduce={degradation['allreduce']['random']:.2f}x",
    )
    result.check(
        "hop stays no worse than the barrier under bursty (Markov) "
        "stragglers",
        degradation["hop/backup"]["bursty"]
        <= degradation["allreduce"]["bursty"] * 1.1,
        f"hop={degradation['hop/backup']['bursty']:.2f}x "
        f"allreduce={degradation['allreduce']['bursty']:.2f}x",
    )
    crash_run = runs["hop/backup/crash-restart"]
    kinds = {event["kind"] for event in crash_run.fault_events}
    result.check(
        "crash-restart lifecycle surfaced in TrainingRun "
        "(crashed -> resynced -> restarted)",
        {"crashed", "restarted", "resynced"} <= kinds,
        f"events={crash_run.fault_events}",
    )
    result.check(
        "crash-restart: every worker still completes all iterations",
        all(
            completed == ctx.max_iter
            for completed in crash_run.iterations_completed
        ),
        f"iterations={crash_run.iterations_completed}",
    )
    bounds = gap_bound_matrix(ctx.topology, "backup+tokens", max_ig=_BACKUP.max_ig)
    violations = crash_run.gap.violations(bounds)
    result.check(
        "crash-restart blast radius respects Theorem 2's iteration-gap "
        "bound",
        not violations,
        f"violations={violations}" if violations else "",
    )
    families = registered_scenarios(universal_only=True)
    result.check(
        "scenario registry offers >= 6 universal families",
        len(families) >= 6,
        f"families={families}",
    )


# ----------------------------------------------------------------------
# Figure 24 (extension): simulator scaling study
# ----------------------------------------------------------------------
# Not a figure from the Hop paper: it scales the *simulator* to the
# cluster sizes where related systems report results (Prague,
# arXiv:1909.08029; HetPipe, arXiv:2005.14038 — 32+ workers) and
# verifies the claims that only emerge at scale:
#
# * hop's simulated iteration time is flat in cluster size (each worker
#   talks to a constant-degree neighborhood),
# * the centralized PS hotspot degrades linearly with worker count
#   (every worker serializes through one NIC),
# * the simulator itself stays usable at 128 workers — each cell also
#   records the real wall-clock cost of simulating it (the repo
#   benchmark's ``svm-scale`` workload times hop at 64, 256 and 1024
#   workers).
#
# Cells run with LIGHT_TRACE so tracer bookkeeping does not tax the
# scaling measurement.
_FIG24_SIZES = {
    "smoke": (8, 16),
    "bench": (8, 16, 32, 64, 128),
    "paper": (16, 32, 64, 128),
}
_FIG24_SCALE_SIZES = {"smoke": (256,), "bench": (1024,), "paper": (4096, 16384)}
_FIG24_PROTOCOLS = ("hop", "allreduce", "ps-async")


def _timed_run(spec):
    start = time.perf_counter()
    run = run_spec(spec)
    return run, time.perf_counter() - start


def _fig24_report(ctx, result, runs):
    # The one study that runs its own cells: it times each cell
    # serially, which a pooled run_specs fan-out cannot.
    sizes = _FIG24_SIZES[ctx.preset]
    result.title += f": workers in {list(sizes)}, hop vs allreduce vs ps-async"
    max_iter = ctx.max_iter
    sim_wall: Dict[str, Dict[int, float]] = {p: {} for p in _FIG24_PROTOCOLS}
    elapsed: Dict[str, Dict[int, float]] = {p: {} for p in _FIG24_PROTOCOLS}
    for n in sizes:
        grid = ctx.grid(
            {protocol: dict(protocol=protocol) for protocol in _FIG24_PROTOCOLS},
            topology=ring_based(n), trace_channels=LIGHT_TRACE,
        )
        for protocol, spec in grid.items():
            run, cost = _timed_run(spec)
            sim_wall[protocol][n] = run.wall_time
            elapsed[protocol][n] = cost
            result.rows.append(
                {
                    "protocol": protocol,
                    "workers": n,
                    "sim_wall_time": run.wall_time,
                    "iter_rate": run.iteration_rate(),
                    "messages": run.messages_sent,
                    "elapsed_seconds": cost,
                }
            )
            result.check(
                f"{protocol}/{n}: every worker finishes",
                all(c == max_iter for c in run.iterations_completed),
                f"iterations={sorted(set(run.iterations_completed))}",
            )
    smallest, largest = sizes[0], sizes[-1]
    result.series = {
        protocol: (
            np.array(sizes, dtype=float),
            np.array([sim_wall[protocol][n] for n in sizes]),
        )
        for protocol in _FIG24_PROTOCOLS
    }
    hop_growth = sim_wall["hop"][largest] / sim_wall["hop"][smallest]
    ps_growth = sim_wall["ps-async"][largest] / sim_wall["ps-async"][smallest]
    result.check(
        "hop's simulated time is ~flat in cluster size (constant-degree "
        "neighborhoods)",
        hop_growth < 1.5,
        f"{smallest}->{largest} workers: {hop_growth:.2f}x",
    )
    result.check(
        "the PS NIC hotspot degrades with scale (the paper's Figure 13 "
        "mechanism)",
        # The smoke preset's 8->16 ratio sits exactly at 2.0; the 1.8
        # margin keeps the CI smoke gate robust to benign float
        # reorderings while still catching a broken hotspot model.
        ps_growth > 1.8,
        f"{smallest}->{largest} workers: {ps_growth:.2f}x",
    )
    result.check(
        "decentralized beats centralized at the largest scale",
        sim_wall["hop"][largest] < sim_wall["ps-async"][largest],
        f"hop={sim_wall['hop'][largest]:.1f}s "
        f"ps={sim_wall['ps-async'][largest]:.1f}s",
    )
    # Real simulation cost must scale benignly: linear growth in
    # workers is expected (constant work per worker-iteration); the
    # generous 4x-over-linear ceiling catches an accidental O(n^2)
    # engine or queue regression without flaking on machine noise.
    scale_factor = largest / smallest
    cost_growth = elapsed["hop"][largest] / max(
        elapsed["hop"][smallest], 1e-9
    )
    result.check(
        "simulating hop stays near-linear in cluster size "
        "(engine fast path holds up)",
        cost_growth < 4.0 * scale_factor,
        f"{smallest}->{largest} workers: {cost_growth:.1f}x real cost "
        f"({scale_factor:.0f}x workers)",
    )
    # ------------------------------------------------------------------
    # Scale tier: hop alone, a few iterations, far past the grid
    # ------------------------------------------------------------------
    # The grid above tops out at 128 workers because every cell runs
    # three protocols at full iteration count.  The scale tier takes
    # hop through plain ``run_spec`` to the sizes the O(n + m) cluster
    # state makes fit in memory (16384 workers under 0.5 GB) and
    # records the process's resident high-water mark after each cell;
    # it runs ascending so that mark belongs to the cell.  Rows are
    # deterministic except elapsed_seconds and ru_maxrss_mb.
    from repro.harness.profiling import peak_rss_mb

    scale_iters = min(max_iter, 3)
    for n in _FIG24_SCALE_SIZES[ctx.preset]:
        grid = ctx.grid(
            {"hop-serial": {}}, topology=ring_based(n),
            max_iter=scale_iters, trace_channels=LIGHT_TRACE,
        )
        run, cost = _timed_run(grid["hop-serial"])
        result.rows.append(
            {
                "protocol": "hop-serial",
                "workers": n,
                "sim_wall_time": run.wall_time,
                "iter_rate": run.iteration_rate(),
                "messages": run.messages_sent,
                "elapsed_seconds": cost,
                "ru_maxrss_mb": peak_rss_mb(),
            }
        )
        result.check(
            f"hop-serial/{n}: every worker finishes",
            all(c == scale_iters for c in run.iterations_completed),
            f"iterations={sorted(set(run.iterations_completed))}",
        )


# ----------------------------------------------------------------------
# Figure 25 (extension): membership churn study
# ----------------------------------------------------------------------
# Not a figure from the Hop paper: it opens the scenario axis the
# membership plane enables — workers leaving and rejoining mid-training
# with live topology rewiring (Moshpit SGD's regime, arXiv:2103.03239;
# Prague re-partitions groups every round).  For churn rates from 0
# (static) upward it runs every registered protocol — all nine are
# elastic since the full-grid pass: hop's token fabric, NOTIFY-ACK's
# serial gating graph, the gossip pair (adpsgd, momentum-tracking), the
# group protocols (allreduce, partial-allreduce) and the HetPipe-style
# re-sharding parameter servers — under ``churn-poisson`` and reports
# convergence, the realized iteration gap, the spectral gap of every
# repaired topology, and the rewire control cost — loss + gap + rewire
# cost vs. churn rate.
_FIG25 = ("hop/backup", "notify-ack", "adpsgd", "momentum-tracking",
          "partial-allreduce", "allreduce", "ps-bsp", "ps-async", "ps-ssp")
_FIG25_RATES = {
    "smoke": (0.0, 0.15),
    "bench": (0.0, 0.06, 0.12, 0.25),
    "paper": (0.0, 0.05, 0.1, 0.2, 0.4),
}


def _fig25_cells(ctx):
    churn = {
        rate: dict(scenario=ScenarioSpec(
            "churn-poisson",
            {
                "rate": rate,
                "horizon": ctx.max_iter,
                "rejoin_after": max(2, ctx.max_iter // 3),
            },
        ))
        for rate in _FIG25_RATES[ctx.preset]
    }
    return ctx.grid(cross(_contenders(ctx, _FIG25), churn))


def _fig25_report(ctx, result, runs):
    max_iter, rates = ctx.max_iter, _FIG25_RATES[ctx.preset]
    contenders = _contenders(ctx, _FIG25)
    result.check(
        "the churn grid covers every registered protocol",
        {options["protocol"] for options in contenders.values()}
        == set(registered_protocols()),
        f"contenders={sorted(contenders)}",
    )
    losses: Dict[str, Dict[float, float]] = {}
    for label in contenders:
        losses[label] = {}
        for rate in rates:
            run = runs[f"{label}/{rate}"]
            events = run.membership_events
            rewires = [e for e in events if e["kind"] == "rewire"]
            leaves = sum(1 for e in events if e["kind"] == "leave")
            joins = sum(1 for e in events if e["kind"] == "join")
            loss = final_smoothed_loss(run)
            losses[label][rate] = loss
            result.rows.append(
                {
                    "protocol": label,
                    "rate": rate,
                    "final_loss": loss,
                    "wall_time": run.wall_time,
                    "leaves": leaves,
                    "joins": joins,
                    "rewire_cost": sum(e["rewire_cost"] for e in rewires),
                    "min_spectral_gap": (
                        min(e["spectral_gap"] for e in rewires)
                        if rewires
                        else np.nan
                    ),
                    "observed_max_gap": run.gap.max_observed(),
                    "messages_dropped": run.messages_dropped,
                }
            )
    for label in contenders:
        result.series[label] = (
            np.array(rates, dtype=float),
            np.array([losses[label][rate] for rate in rates]),
        )

    top = rates[-1]
    # The asynchronous server modes trade convergence-per-iteration
    # for wall-clock: at the short smoke/bench horizons their smoothed
    # loss sits well above the synchronous protocols' without any
    # churn involved, so they get a looser (still finite and bounded)
    # ceiling.
    loss_ceiling = {"ps-async": 2.0, "ps-ssp": 2.0}
    for label in contenders:
        ceiling = loss_ceiling.get(label, 1.0)
        for rate in rates:
            run = runs[f"{label}/{rate}"]
            loss = losses[label][rate]
            result.check(
                f"{label} converges under churn rate {rate}",
                np.isfinite(loss) and loss < ceiling,
                f"final_loss={loss:.3f}",
            )
            leavers = {
                event["worker"]
                for event in run.membership_events
                if event["kind"] == "leave"
            }
            stalled = [
                wid
                for wid, completed in enumerate(run.iterations_completed)
                if completed != max_iter and wid not in leavers
            ]
            result.check(
                f"{label}/{rate}: every never-leaving worker finishes",
                not stalled,
                f"stalled={stalled}" if stalled else "",
            )
        clean = runs[f"{label}/0.0"]
        result.check(
            f"{label}: rate 0 runs a static membership "
            "(no events, nothing dropped at members)",
            not clean.membership_events,
            f"events={clean.membership_events}",
        )
        churned = runs[f"{label}/{top}"]
        result.check(
            f"{label}: churn actually happens at rate {top}",
            any(e["kind"] == "leave" for e in churned.membership_events),
            f"events={[e['kind'] for e in churned.membership_events]}",
        )
        gaps = [
            e["spectral_gap"]
            for e in churned.membership_events
            if e["kind"] == "rewire"
        ]
        result.check(
            f"{label}: every repaired topology keeps mixing "
            "(positive spectral gap after each rewire)",
            all(g > 0 for g in gaps),
            f"spectral gaps={[round(g, 3) for g in gaps]}",
        )
    # The static column is still the paper's regime: Theorem 2 holds.
    clean_hop = runs["hop/backup/0.0"]
    bounds = gap_bound_matrix(
        ctx.topology, "backup+tokens", max_ig=_BACKUP.max_ig
    )
    violations = clean_hop.gap.violations(bounds)
    result.check(
        "hop at rate 0 respects Theorem 2's gap bound (static regime "
        "unchanged by the membership plane)",
        not violations,
        f"violations={violations}" if violations else "",
    )
    hop_costs = [
        row["rewire_cost"]
        for row in result.rows
        if row["protocol"] == "hop/backup"
    ]
    result.check(
        "rewire control cost grows with churn rate (hop)",
        hop_costs[0] == 0 and hop_costs[-1] > 0,
        f"costs per rate={hop_costs}",
    )
    result.notes = (
        "churn-poisson draws a scripted plan at build time (seeded), "
        "so every cell is bit-deterministic.  min_spectral_gap is the "
        "worst mixing rate over the run's repaired topologies; "
        "rewire_cost counts control messages (2 per changed edge).  "
        "Leavers rejoin after "
        f"{max(2, max_iter // 3)} frontier iterations when the horizon allows."
    )


# ----------------------------------------------------------------------
# Figure 26 (extension): update compression ablation
# ----------------------------------------------------------------------
# Not a figure from the Hop paper: it sweeps the compression plane —
# top-k sparsification with error feedback (Deep Gradient Compression,
# arXiv:1712.01887) and int8 quantization — across hop, allreduce and
# ps-async on bandwidth-constrained links, the regime where the paper's
# tens-of-MB SVM updates make communication the bottleneck.  Every send
# is priced from the actual compressed buffer sizes (values + indices +
# scales), so the figure answers the systems question directly: how
# much simulated wall-clock does each scheme buy, and what does it cost
# in convergence?
_FIG26_PROTOCOLS = ("hop", "allreduce", "ps-async")
_FIG26_VARIANTS = {
    "none": None,
    "topk-0.10": CompressionSpec("topk", {"ratio": 0.10}),
    "topk-0.01": CompressionSpec("topk", {"ratio": 0.01}),
    "int8": CompressionSpec("int8", {}),
}


def _fig26_cells(ctx):
    # Constrain bandwidth so the 8 MB updates dominate: at 40 MB/s a
    # dense transfer costs 0.2 s against a 0.2 s compute step.  The PS
    # protocols price their own shared NIC (the hotspot is the point),
    # which is comm-bound already; they ignore the link model.
    return ctx.grid(
        cross(
            {protocol: dict(protocol=protocol) for protocol in _FIG26_PROTOCOLS},
            {label: dict(compression=c) for label, c in _FIG26_VARIANTS.items()},
        ),
        links=uniform_links(latency=1e-4, bandwidth=40.0),
    )


def _fig26_report(ctx, result, runs):
    protocols, variants = _FIG26_PROTOCOLS, _FIG26_VARIANTS
    for protocol in protocols:
        dense = runs[f"{protocol}/none"]
        for label in variants:
            run = runs[f"{protocol}/{label}"]
            result.rows.append(
                {
                    "protocol": protocol,
                    "compression": label,
                    "wall_time": run.wall_time,
                    "bytes_sent": run.bytes_sent,
                    "bytes_ratio": run.bytes_sent / dense.bytes_sent,
                    "speedup": dense.wall_time / run.wall_time,
                    "final_loss": final_smoothed_loss(run),
                }
            )

    by_cell = {
        (row["protocol"], row["compression"]): row for row in result.rows
    }
    # The acceptance criterion for the compression plane: aggressive
    # top-k visibly buys back the bandwidth-bound allreduce ring.
    sparse_ar = by_cell[("allreduce", "topk-0.01")]
    result.check(
        "allreduce + topk(0.01) drops simulated wall-clock measurably "
        "under bandwidth-constrained links",
        sparse_ar["speedup"] > 1.3,
        f"speedup={sparse_ar['speedup']:.2f}x "
        f"({by_cell[('allreduce', 'none')]['wall_time']:.2f}s -> "
        f"{sparse_ar['wall_time']:.2f}s)",
    )
    for protocol in protocols:
        result.check(
            f"{protocol}: every compressed variant still moves bytes "
            "and fewer of them than dense",
            all(
                0.0 < by_cell[(protocol, label)]["bytes_ratio"] < 1.0
                for label in variants
                if label != "none"
            ),
            ", ".join(
                f"{label}={by_cell[(protocol, label)]['bytes_ratio']:.3f}"
                for label in variants
                if label != "none"
            ),
        )
        # Wire-cost model sanity: top-k at ratio r ships ~1.5r of the
        # dense bytes (8B value + 4B index per survivor), int8 ~1/8
        # plus the per-message scale.  The parameter server compresses
        # only the gradient push — the model pull stays dense — so its
        # ratios floor at 1/2 of a round's traffic.
        floor = 0.5 if protocol == "ps-async" else 0.0
        result.check(
            f"{protocol}: byte ratios track the schemes' arithmetic "
            "(topk ~1.5x ratio, int8 ~1/8"
            + (", +1/2 for the dense pull)" if floor else ")"),
            by_cell[(protocol, "topk-0.01")]["bytes_ratio"] < floor + 0.08
            and by_cell[(protocol, "int8")]["bytes_ratio"] < floor + 0.2,
            f"topk-0.01={by_cell[(protocol, 'topk-0.01')]['bytes_ratio']:.3f} "
            f"int8={by_cell[(protocol, 'int8')]['bytes_ratio']:.3f}",
        )
        result.check(
            f"{protocol}: compression changes payloads, not the "
            "message pattern",
            all(
                runs[f"{protocol}/{label}"].messages_sent
                == runs[f"{protocol}/none"].messages_sent
                for label in variants
            ),
            f"messages={[runs[f'{protocol}/{label}'].messages_sent for label in variants]}",
        )
        # Error feedback keeps even the aggressive variants training:
        # the asynchronous PS trades convergence-per-iteration for
        # wall-clock (same looser ceiling as fig23/fig25), and k=1
        # sparsification on a Hogwild server compounds the staleness —
        # that cell only has to stay bounded, which is the honest
        # ablation result (the ratio knob trades bytes for loss).
        for label in variants:
            loss = by_cell[(protocol, label)]["final_loss"]
            ceiling = 1.0
            if protocol == "ps-async":
                ceiling = 10.0 if label == "topk-0.01" else 2.0
            result.check(
                f"{protocol}/{label} converges (error feedback holds)",
                np.isfinite(loss) and loss < ceiling,
                f"final_loss={loss:.3f}",
            )


# ----------------------------------------------------------------------
# Table 1: iteration-gap bounds, theory vs observation
# ----------------------------------------------------------------------
#: Each setting's cell options and its gap_bound_matrix arguments.
_TABLE1 = {
    "standard (no tokens)": (
        dict(config=HopConfig(use_token_queues=False)),
        dict(setting="standard"),
    ),
    "standard+tokens(2)": (
        dict(config=HopConfig(max_ig=2)),
        dict(setting="standard+tokens", max_ig=2),
    ),
    "notify_ack": (
        dict(config=STANDARD, protocol="notify_ack"),
        dict(setting="notify_ack"),
    ),
    "backup+tokens(3)": (
        dict(config=backup_config(n_backup=1, max_ig=3)),
        dict(setting="backup+tokens", max_ig=3),
    ),
    "staleness+tokens(2,4)": (
        dict(config=staleness_config(staleness=2, max_ig=4)),
        dict(setting="staleness+tokens", max_ig=4, staleness=2),
    ),
}


def _table1_cells(ctx):
    return ctx.grid(
        {label: options for label, (options, _) in _TABLE1.items()},
        scenario=deterministic_straggler(worker=0, factor=6.0),
    )


def _table1_report(ctx, result, runs):
    for label, (_, bound) in _TABLE1.items():
        run = runs[label]
        bounds = gap_bound_matrix(ctx.topology, **bound)
        violations = run.gap.violations(bounds)
        finite = bounds[np.isfinite(bounds)]
        result.rows.append(
            {
                "setting": label,
                "observed_max_gap": run.gap.max_observed(),
                "bound_max": float(finite.max()) if finite.size else np.inf,
                "violations": len(violations),
            }
        )
        result.check(
            f"{label}: no bound violations",
            not violations,
            f"violations={violations}" if violations else "",
        )
    observed = [row["observed_max_gap"] for row in result.rows]
    result.check(
        "gap slack is actually exploited under a straggler",
        max(observed) >= 2.0,
        f"max observed gap={max(observed):g}",
    )


def _no_cells(ctx):
    return {}


#: The evaluation, by figure id: what the benchmarks and the CLI run.
ALL_FIGURES: Dict[str, Study] = {
    "fig12": Study(
        "fig12",
        "Effect of heterogeneity ({workload}): sparser graphs suffer less",
        _fig12_cells, _fig12_report, curve=binned_loss_curve,
    ),
    "fig13": Study(
        "fig13",
        "Decentralized vs PS ({workload}): the PS NIC is a hotspot",
        _fig13_cells, _fig13_report, curve=binned_loss_curve,
    ),
    "fig14": Study(
        "fig14",
        "Backup workers, loss vs time ({workload}), 6x random slowdown",
        _backup_cells, _fig14_report, curve=binned_loss_curve,
    ),
    "fig15": Study(
        "fig15",
        "Backup workers, loss vs steps ({workload}): "
        "small per-iteration penalty",
        _backup_cells, _fig15_report, curve=binned_loss_vs_steps,
    ),
    "fig16": Study(
        "fig16",
        "Backup workers: iteration speed over 6x slowdown ({workload})",
        _fig16_cells, _fig16_report,
    ),
    "fig17": Study(
        "fig17",
        "Bounded staleness (s=5) under 6x random slowdown ({workload})",
        _fig17_cells, _fig17_report, curve=binned_loss_curve,
    ),
    "fig18": Study(
        "fig18",
        "Skipping iterations: per-iteration duration with a 4x straggler "
        "({workload})",
        _fig18_cells, _fig18_report,
    ),
    "fig19": Study(
        "fig19",
        "Effect of skipping iterations ({workload}), 4x straggler",
        _fig19_cells, _fig19_report, curve=binned_loss_curve,
    ),
    "fig20": Study(
        "fig20",
        "Topology comparison: 8 workers on 3 machines ({workload})",
        _fig20_cells, _fig20_report, curve=binned_loss_curve,
    ),
    "fig21": Study(
        "fig21",
        "Spectral gaps of the three topology settings "
        "(paper: 0.6667 / 0.2682 / 0.2688)",
        _no_cells, _fig21_report,
        notes=(
            "The paper does not fully specify the setting-2/3 drawings; "
            "we use the two natural gateway variants (shared and "
            "distinct gateways, repro.graphs.fig21_setting2/3) and "
            "verify the qualitative claim."
        ),
    ),
    "fig22": Study(
        "fig22",
        "Protocol comparison ({workload}): heterogeneity "
        "tolerance across the registry",
        _fig22_cells, _fig22_report, workload="svm",
        notes=(
            "Gossip protocols (adpsgd, momentum-tracking) run on the "
            "bipartite even ring; the rest on the ring-based graph."
        ),
    ),
    "fig23": Study(
        "fig23",
        "Scenario grid ({workload}): protocols x scenario families",
        _fig23_cells, _fig23_report, workload="svm",
        notes=(
            "Degradation = wall time relative to the protocol's own clean "
            "run.  Gossip (adpsgd) runs on the bipartite even ring; the "
            "rest on the ring-based graph.  Non-hop protocols model the "
            "crash downtime as an equivalent compute stall."
        ),
    ),
    "fig24": Study(
        "fig24", "Simulator scaling ({workload})", _no_cells, _fig24_report,
        workload="svm",
        notes=(
            "elapsed_seconds is real wall-clock (machine-dependent); "
            "simulated quantities are deterministic.  The hop-serial rows "
            "take plain run_spec to the scale tier (ru_maxrss_mb is the "
            "process high-water mark after the cell).  No tier splits one "
            "cell across processes: each process would replay the whole "
            "control plane and split only the math, about 6% of a hop "
            "cell's host time, so it cannot beat the serial run."
        ),
    ),
    "fig25": Study(
        "fig25",
        "Membership churn ({workload}): the full protocol grid "
        "vs Poisson join/leave rate",
        _fig25_cells, _fig25_report, workload="svm",
    ),
    "fig26": Study(
        "fig26",
        "Update compression ({workload}): ratio vs convergence "
        "vs wall-clock, hop / allreduce / ps-async",
        _fig26_cells, _fig26_report, workload="svm", curve=binned_loss_curve,
        notes=(
            "bytes_sent counts delivered payload bytes priced from the "
            "actual compressed buffers (values + indices + scales); "
            "speedup is simulated wall-clock relative to the protocol's "
            "own dense run on the same 40 MB/s links.  ps-async prices "
            "its own shared NIC (125 MB/s) — the hotspot serializes all "
            "workers, so compression still pays there."
        ),
    ),
    "table1": Study(
        "table1", "Iteration-gap upper bounds (Theorems 1 & 2, Table 1)",
        _table1_cells, _table1_report, workload="svm", workload_preset="smoke",
        scale={"smoke": (5, 16), "bench": (5, 30), "paper": (5, 60)},
        topology=chain,
    ),
}
