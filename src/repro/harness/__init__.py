"""Experiment harness: workloads, specs, figure reproduction, reports.

Public API::

    from repro.harness import ALL_FIGURES

    result = ALL_FIGURES["fig16"]("smoke")
    print(result.render())
    assert result.passed()
"""

from repro.harness.figures import ALL_FIGURES
from repro.harness.study import FigureResult
from repro.harness.report import (
    render_check,
    render_series_table,
    render_table,
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
from repro.harness.parallel import (
    default_jobs,
    resolve_jobs,
    run_specs,
    set_default_jobs,
)
from repro.harness.spec import (
    RANDOM_6X,
    ExperimentSpec,
    deterministic_straggler,
    run_spec,
)
from repro.scenarios import ScenarioSpec
from repro.harness.ablations import ALL_ABLATIONS
from repro.harness.io import (
    figure_to_dict,
    load_run_summary,
    run_to_dict,
    save_figure,
    save_run,
)
from repro.harness.workloads import (
    PRESETS,
    WORKLOADS,
    Workload,
    by_name,
    cnn_workload,
    svm_workload,
)

__all__ = [
    "ALL_ABLATIONS",
    "ALL_FIGURES",
    "ExperimentSpec",
    "FigureResult",
    "PRESETS",
    "RANDOM_6X",
    "ScenarioSpec",
    "WORKLOADS",
    "Workload",
    "binned_loss_curve",
    "binned_loss_vs_steps",
    "by_name",
    "cnn_workload",
    "compare_runs",
    "default_jobs",
    "deterministic_straggler",
    "figure_to_dict",
    "final_smoothed_loss",
    "iteration_rate_speedup",
    "load_run_summary",
    "render_check",
    "render_series_table",
    "render_table",
    "resolve_jobs",
    "run_spec",
    "run_specs",
    "run_to_dict",
    "set_default_jobs",
    "save_figure",
    "save_run",
    "straggler_slowdown_ratio",
    "svm_workload",
    "wall_time_speedup",
]
