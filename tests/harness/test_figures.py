"""Smoke tests for the study table: every study runs, passes and dumps
strict JSON, and every cell carries the seed it was asked for.

The heavier figures are exercised at the ``smoke`` preset; the
benchmark harness runs them at full ``bench`` scale.
"""

import json

import pytest

from repro.harness.ablations import ALL_ABLATIONS
from repro.harness.figures import ALL_FIGURES
from repro.harness.study import FigureResult, save_figure

STUDIES = {**ALL_FIGURES, **ALL_ABLATIONS}


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


def assert_strict_json(result, directory):
    """The ``--json-dir`` artifact parses under a strict JSON reader."""
    path = save_figure(result, directory / f"{result.figure_id}.json")
    json.loads(path.read_text(), parse_constant=_reject)


class TestFigureResult:
    def test_check_and_passed(self):
        result = FigureResult("f", "t")
        result.check("ok", True)
        assert result.passed()
        result.check("bad", False, "why")
        assert not result.passed()
        assert result.failures() == ["bad"]

    def test_render_includes_everything(self):
        result = FigureResult("fig0", "demo title")
        result.rows.append({"a": 1})
        result.check("claim", True, "detail")
        result.notes = "a note"
        text = result.render()
        assert "fig0" in text and "demo title" in text
        assert "[PASS] claim" in text
        assert "a note" in text


class TestFastFigures:
    def test_fig21_passes(self):
        result = ALL_FIGURES["fig21"]("smoke")
        assert result.passed(), result.render()

    def test_table1_passes(self):
        result = ALL_FIGURES["table1"]("smoke")
        assert result.passed(), result.render()


@pytest.mark.parametrize("figure_id", sorted(ALL_FIGURES))
def test_every_figure_passes_at_smoke_scale(figure_id, tmp_path):
    result = ALL_FIGURES[figure_id]("smoke")
    assert result.passed(), result.render()
    assert result.rows or result.series
    assert_strict_json(result, tmp_path)


@pytest.mark.parametrize("name", sorted(set(STUDIES) - {"fig21", "fig24"}))
def test_every_cell_carries_the_requested_seed(name):
    """Cells are data: built at seed 7 without simulating anything.

    fig21 runs no cells and fig24 times its own; stale_reduce
    replicates over seeds ``s + i``.
    """
    study = STUDIES[name]
    specs = study.cells(study.context("smoke", seed=7))
    seeds = sorted(spec.seed for spec in specs.values())
    expected = [7, 7, 8, 8] if name == "stale_reduce" else [7] * len(specs)
    assert specs and seeds == expected


def test_registry_covers_the_evaluation_section():
    expected = {
        "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "fig18", "fig19", "fig20", "fig21", "table1",
        "fig22",  # extension: registry-wide protocol comparison
        "fig23",  # extension: protocol x scenario-family grid
        "fig24",  # extension: simulator scaling study
        "fig25",  # extension: membership churn study
        "fig26",  # extension: update compression ablation
    }
    assert set(ALL_FIGURES) == expected


def test_fig24_ps_hotspot_pinned_across_accounting_split():
    """The PS-hotspot numbers, bitwise, before == after.

    The delivered/dropped/control byte-accounting split changes what
    the volume stats *mean* but must not move a single simulated
    timestamp — the pre-split golden cells replay bitwise, and these
    hex literals extend that pin to the fig24 hotspot cells: the
    smoke-preset ps-async rows must reproduce them exactly (the
    hotspot serializes every worker through one NIC, so any accidental
    timing change shows up here first).
    """
    result = ALL_FIGURES["fig24"]("smoke")
    pinned = {
        8: float.fromhex("0x1.068db8bac7102p+4"),
        16: float.fromhex("0x1.068db8bac7107p+5"),
    }
    observed = {
        row["workers"]: row["sim_wall_time"]
        for row in result.rows
        if row["protocol"] == "ps-async"
    }
    assert observed == pinned
