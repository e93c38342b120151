"""The evaluation at the ``bench`` preset: every study in the table.

Each case regenerates one figure, table or ablation, asserts its shape
checks (the paper's qualitative claims; the ablations probe claims the
paper makes in prose) and writes the render to
``benchmarks/results/<id>[_<workload>].txt``.  Figures 12-15 and 19 run
on both workloads, as the paper plots them; every other study runs on
its own default workload.  ``-k fig21`` selects one study.
"""

import pytest

from repro.harness.ablations import ALL_ABLATIONS
from repro.harness.figures import ALL_FIGURES

BOTH_WORKLOADS = ("fig12", "fig13", "fig14", "fig15", "fig19")

CASES = [
    pytest.param(study, workload, id=f"{figure_id}_{workload}")
    for figure_id, study in ALL_FIGURES.items()
    if figure_id in BOTH_WORKLOADS
    for workload in ("cnn", "svm")
] + [
    pytest.param(study, None, id=study.figure_id)
    for figure_id, study in {**ALL_FIGURES, **ALL_ABLATIONS}.items()
    if figure_id not in BOTH_WORKLOADS
]


@pytest.mark.parametrize("study, workload", CASES)
def test_study(study, workload, benchmark, record_figure):
    result = benchmark.pedantic(
        lambda: study("bench", workload), rounds=1, iterations=1
    )
    record_figure(result, workload or "")
