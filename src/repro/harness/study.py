"""The study driver: one call path for every figure and ablation.

A :class:`Study` is a table entry of two parts.  ``cells`` builds the
``{label: ExperimentSpec}`` grid from a :class:`Context` (the preset's
worker count and iteration budget, the workload, the seed and a default
topology); ``report`` fills a :class:`FigureResult`'s rows and shape
checks from the finished runs.  Calling the study does everything in
between: scale and workload lookup, the result header, one
:func:`~repro.harness.parallel.run_specs` fan-out, and a loss curve per
cell for studies that plot every cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.graphs import ring_based
from repro.graphs.topology import Topology
from repro.harness.io import atomic_write_json
from repro.harness.parallel import run_specs
from repro.harness.report import render_check, render_series_table, render_table
from repro.harness.spec import ExperimentSpec
from repro.harness.workloads import Workload, by_name
from repro.protocols.base import TrainingRun

#: (n_workers, max_iter) per preset.
SCALE = {"smoke": (8, 16), "bench": (16, 40), "paper": (16, 120)}


@dataclass
class FigureResult:
    """The reproduced artifact for one paper figure/table."""

    figure_id: str
    title: str
    rows: List[dict] = field(default_factory=list)
    series: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    notes: str = ""

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> List[str]:
        return [name for name, ok, _ in self.checks if not ok]

    def render(self) -> str:
        parts = [f"=== {self.figure_id}: {self.title} ==="]
        if self.rows:
            parts.append(render_table(self.rows))
        if self.series:
            parts.append(render_series_table(self.series))
        if self.checks:
            parts.append("shape checks:")
            for name, ok, detail in self.checks:
                parts.append(render_check(name, ok, detail))
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)


def _finite_or_none(value):
    """Strict JSON has no NaN or Infinity: a non-finite float is null."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def figure_to_dict(result: FigureResult) -> dict:
    """A strict-JSON dump of a figure reproduction (non-finite -> null)."""
    return {
        "figure_id": result.figure_id,
        "title": result.title,
        "rows": [
            {key: _finite_or_none(value) for key, value in row.items()}
            for row in result.rows
        ],
        "series": {
            label: {
                "x": [_finite_or_none(float(v)) for v in xs],
                "y": [_finite_or_none(float(v)) for v in ys],
            }
            for label, (xs, ys) in result.series.items()
        },
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in result.checks
        ],
        "passed": result.passed(),
        "notes": result.notes,
    }


def save_figure(result: FigureResult, path: Union[str, Path]) -> Path:
    """Write a figure reproduction (JSON) next to its text render."""
    return atomic_write_json(path, figure_to_dict(result))


@dataclass(frozen=True)
class Context:
    """What a study's cells are built from."""

    preset: str
    n: int
    max_iter: int
    workload: Workload
    seed: int
    topology: Topology

    def grid(
        self, cells: Mapping[object, dict], **common
    ) -> Dict[object, ExperimentSpec]:
        """``{label: spec}``: the context's workload, topology, budget and
        seed, overridden by ``common`` and then by each cell's options."""
        defaults = dict(
            workload=self.workload,
            topology=self.topology,
            max_iter=self.max_iter,
            seed=self.seed,
        )
        return {
            label: ExperimentSpec(str(label), **{**defaults, **common, **options})
            for label, options in cells.items()
        }


def cross(rows: Mapping[str, dict], columns: Mapping[object, dict]) -> Dict[str, dict]:
    """Every row with every column: label ``row/column``, options merged."""
    return {
        f"{row}/{column}": {**row_options, **column_options}
        for row, row_options in rows.items()
        for column, column_options in columns.items()
    }


Runs = Dict[object, TrainingRun]


@dataclass(frozen=True)
class Study:
    """One figure or ablation: a grid of cells and a report over them.

    ``title`` may name ``{workload}``.  ``curve`` (e.g.
    :func:`~repro.harness.results.binned_loss_curve`) plots every cell
    as a series under its label.  ``scale``, ``topology`` and
    ``workload_preset`` override the defaults for studies with a fixed
    setting (Table 1 trains the smoke-sized SVM on a 5-worker chain).
    """

    figure_id: str
    title: str
    cells: Callable[[Context], Mapping[object, ExperimentSpec]]
    report: Callable[[Context, FigureResult, Runs], None]
    workload: str = "cnn"
    curve: Optional[Callable[[TrainingRun], Tuple[np.ndarray, np.ndarray]]] = None
    notes: str = ""
    scale: Mapping[str, Tuple[int, int]] = field(default_factory=lambda: SCALE)
    topology: Callable[[int], Topology] = ring_based
    workload_preset: Optional[str] = None

    def context(
        self, preset: str, workload_name: Optional[str] = None, seed: int = 0
    ) -> Context:
        n, max_iter = self.scale[preset]
        workload = by_name(
            workload_name or self.workload, self.workload_preset or preset
        )
        return Context(preset, n, max_iter, workload, seed, self.topology(n))

    def __call__(
        self, preset: str = "bench", workload_name: Optional[str] = None,
        seed: int = 0,
    ) -> FigureResult:
        ctx = self.context(preset, workload_name, seed)
        result = FigureResult(
            self.figure_id,
            self.title.format(workload=ctx.workload.name),
            notes=self.notes,
        )
        runs = run_specs(self.cells(ctx))
        if self.curve is not None:
            result.series = {label: self.curve(run) for label, run in runs.items()}
        self.report(ctx, result, runs)
        return result
