"""Parameter sweeps over experiment specs.

A thin utility for the exploration loops users actually run: vary one
knob (max_ig, staleness bound, backup count, worker count, slowdown
factor), train once per value, and tabulate the outcomes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional

from repro.protocols.base import TrainingRun
from repro.harness.parallel import run_specs
from repro.harness.results import final_smoothed_loss
from repro.harness.spec import ExperimentSpec


def sweep(
    base: ExperimentSpec,
    vary: Callable[[ExperimentSpec, object], ExperimentSpec],
    values: Iterable[object],
    label: str = "value",
) -> List[dict]:
    """Run ``base`` once per value, transformed by ``vary``.

    The per-value runs are independent, so they fan out across the
    parallel runner (``--jobs``/``REPRO_JOBS``) like figure series.

    Args:
        base: The spec every run starts from.
        vary: ``f(spec, value) -> spec`` applying one knob.
        values: The knob values to sweep.
        label: Column name for the knob in the result rows.

    Returns:
        One summary row per value: wall time, iteration rate, final
        smoothed loss, max observed gap, accuracy.
    """
    values = list(values)
    runs = run_specs({
        index: vary(base, value) for index, value in enumerate(values)
    })
    return [
        summary_row(runs[index], extra={label: value})
        for index, value in enumerate(values)
    ]


def summary_row(run: TrainingRun, extra: Optional[Dict] = None) -> dict:
    """The standard sweep row for one finished run."""
    row = dict(extra or {})
    row.update(
        {
            "wall_time": run.wall_time,
            "iter_rate": run.iteration_rate(),
            "final_loss": final_smoothed_loss(run),
            "max_gap": run.gap.max_observed(),
            "accuracy": run.final_accuracy,
        }
    )
    return row


def sweep_max_ig(base: ExperimentSpec, values: Iterable[int]) -> List[dict]:
    """Sweep the token-queue gap bound (requires a hop config)."""

    def vary(spec: ExperimentSpec, max_ig: int) -> ExperimentSpec:
        return spec.with_(config=replace(spec.config, max_ig=max_ig))

    return sweep(base, vary, values, label="max_ig")


def sweep_staleness(base: ExperimentSpec, values: Iterable[int]) -> List[dict]:
    """Sweep the staleness bound (requires a staleness-mode config)."""

    def vary(spec: ExperimentSpec, s: int) -> ExperimentSpec:
        return spec.with_(config=replace(spec.config, staleness=s))

    return sweep(base, vary, values, label="staleness")


def sweep_backup(base: ExperimentSpec, values: Iterable[int]) -> List[dict]:
    """Sweep the backup-worker count (requires a backup-mode config)."""

    def vary(spec: ExperimentSpec, n_backup: int) -> ExperimentSpec:
        return spec.with_(config=replace(spec.config, n_backup=n_backup))

    return sweep(base, vary, values, label="n_backup")


def sweep_seeds(base: ExperimentSpec, seeds: Iterable[int]) -> List[dict]:
    """Replicate one spec across seeds (variance estimation)."""

    def vary(spec: ExperimentSpec, seed: int) -> ExperimentSpec:
        return spec.with_(seed=seed)

    return sweep(base, vary, seeds, label="seed")
