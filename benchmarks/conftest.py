"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures/tables at the
``bench`` preset, asserts its shape checks, and writes the rendered
rows/series to ``benchmarks/results/<figure>[_<workload>].txt`` (the
artifacts EXPERIMENTS.md records).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_figure(results_dir):
    """Persist a FigureResult's render and assert its shape checks."""

    def _record(result, suffix: str = "") -> None:
        name = result.figure_id + (f"_{suffix}" if suffix else "")
        path = results_dir / f"{name}.txt"
        path.write_text(result.render() + "\n")
        print()
        print(result.render())
        assert result.passed(), (
            f"{result.figure_id} shape checks failed: {result.failures()}\n"
            f"{result.render()}"
        )

    return _record
