"""Smoke tests for the ablation studies."""

import json

import pytest

from repro.harness.study import save_figure
from repro.harness.ablations import ALL_ABLATIONS


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("name", sorted(ALL_ABLATIONS))
def test_ablation_passes_at_smoke_scale(name, tmp_path):
    result = ALL_ABLATIONS[name](preset="smoke")
    assert result.passed(), result.render()
    assert result.rows
    path = save_figure(result, tmp_path / f"{name}.json")
    json.loads(path.read_text(), parse_constant=_reject)
    if name == "max_ig":
        # A looser gap bound is used: the observed gap never shrinks.
        gaps = [row["max_gap"] for row in result.rows]
        assert gaps == sorted(gaps) and gaps[-1] > gaps[0]
    if name == "stale_reduce":
        # Different seeds draw different runs.
        for row in result.rows:
            assert len(set(row["loss_per_seed"].split("/"))) > 1


def test_registry_complete():
    assert set(ALL_ABLATIONS) == {
        "stale_reduce",
        "computation_graph",
        "max_ig",
        "queue_impl",
        "vs_adpsgd",
        "partial_groups",
    }
