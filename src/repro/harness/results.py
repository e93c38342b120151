"""Cross-run analysis: curves, speedups, comparisons."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.protocols.base import TrainingRun


def binned_loss_curve(
    run: TrainingRun, n_bins: int = 20
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean training loss per time bin (the paper's loss-vs-time plots)."""
    times, losses = run.loss_series()
    if times.size == 0:
        return np.array([]), np.array([])
    edges = np.linspace(0.0, run.wall_time, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    means = np.full(n_bins, np.nan)
    indices = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, n_bins - 1)
    for b in range(n_bins):
        mask = indices == b
        if mask.any():
            means[b] = float(losses[mask].mean())
    # Forward-fill empty bins for readable curves.
    last = np.nan
    for b in range(n_bins):
        if np.isnan(means[b]):
            means[b] = last
        else:
            last = means[b]
    valid = ~np.isnan(means)
    return centers[valid], means[valid]


def binned_loss_vs_steps(
    run: TrainingRun, n_bins: int = 20
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean loss per global-step bin (the paper's loss-vs-steps plots)."""
    steps, losses = run.loss_vs_steps(window=1)
    if steps.size == 0:
        return np.array([]), np.array([])
    edges = np.linspace(0, steps.size, n_bins + 1).astype(int)
    centers, means = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            centers.append(0.5 * (lo + hi))
            means.append(float(losses[lo:hi].mean()))
    return np.array(centers), np.array(means)


def wall_time_speedup(baseline: TrainingRun, improved: TrainingRun) -> float:
    """How much faster ``improved`` finished the same iteration budget."""
    if improved.wall_time <= 0:
        return float("inf")
    return baseline.wall_time / improved.wall_time


def iteration_rate_speedup(
    baseline: TrainingRun, improved: TrainingRun
) -> float:
    """Iteration-throughput ratio (the paper's Figure 16 metric)."""
    base_rate = baseline.iteration_rate()
    if base_rate <= 0:
        return float("inf")
    return improved.iteration_rate() / base_rate


def time_to_loss_speedup(
    baseline: TrainingRun, improved: TrainingRun, target: float
) -> float:
    """Convergence-speed ratio at a target loss (inf-safe)."""
    t_base = baseline.time_to_loss(target)
    t_improved = improved.time_to_loss(target)
    if np.isinf(t_improved):
        return 0.0
    if np.isinf(t_base):
        return float("inf")
    return t_base / t_improved


def final_smoothed_loss(run: TrainingRun, window: int = 32) -> float:
    """The end of the smoothed training-loss curve."""
    _, losses = run.smoothed_loss_series(window)
    return float(losses[-1]) if losses.size else float("nan")


def compare_runs(
    runs: Dict[str, TrainingRun],
    target_loss: Optional[float] = None,
    baseline: Optional[str] = None,
) -> List[dict]:
    """One summary row per labeled run, with speedups vs a baseline."""
    baseline = baseline or next(iter(runs))
    base = runs[baseline]
    rows = []
    for label, run in runs.items():
        row = {
            "label": label,
            "protocol": run.protocol,
            "wall_time": run.wall_time,
            "iter_rate": run.iteration_rate(),
            "final_loss": final_smoothed_loss(run),
            "max_gap": run.gap.max_observed(),
            "speedup_vs_" + baseline: wall_time_speedup(base, run),
        }
        if target_loss is not None:
            row["time_to_target"] = run.time_to_loss(target_loss)
        if run.final_accuracy is not None:
            row["accuracy"] = run.final_accuracy
        rows.append(row)
    return rows


def straggler_slowdown_ratio(
    run_with_straggler: TrainingRun, run_clean: TrainingRun
) -> float:
    """Figure 18's metric: mean iteration duration ratio vs clean run."""
    clean = run_clean.mean_iteration_duration()
    if clean <= 0:
        return float("inf")
    return run_with_straggler.mean_iteration_duration() / clean
