"""Experiment harness: workloads, specs, figure reproduction, reports.

Public API::

    from repro.harness import fig16_iteration_speed

    result = fig16_iteration_speed(preset="smoke")
    print(result.render())
    assert result.passed()
"""

from repro.harness.figures import (
    ALL_FIGURES,
    FigureResult,
    fig12_heterogeneity,
    fig13_vs_ps,
    fig14_backup_time,
    fig15_backup_steps,
    fig16_iteration_speed,
    fig17_staleness,
    fig18_skip_duration,
    fig19_skip_convergence,
    fig20_topology,
    fig21_spectral_gaps,
    fig22_protocols,
    fig23_scenario_grid,
    fig24_scaling,
    fig25_churn,
    fig26_compression,
    table1_gap_bounds,
)
from repro.harness.report import (
    render_check,
    render_curve,
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
    time_to_loss_speedup,
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
    SlowdownSpec,
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
from repro.harness.sweeps import (
    summary_row,
    sweep,
    sweep_backup,
    sweep_max_ig,
    sweep_seeds,
    sweep_staleness,
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
    "SlowdownSpec",
    "WORKLOADS",
    "Workload",
    "binned_loss_curve",
    "binned_loss_vs_steps",
    "by_name",
    "cnn_workload",
    "compare_runs",
    "default_jobs",
    "deterministic_straggler",
    "fig12_heterogeneity",
    "fig13_vs_ps",
    "fig14_backup_time",
    "fig15_backup_steps",
    "fig16_iteration_speed",
    "fig17_staleness",
    "fig18_skip_duration",
    "fig19_skip_convergence",
    "fig20_topology",
    "fig21_spectral_gaps",
    "fig22_protocols",
    "fig23_scenario_grid",
    "fig24_scaling",
    "fig25_churn",
    "fig26_compression",
    "figure_to_dict",
    "final_smoothed_loss",
    "iteration_rate_speedup",
    "load_run_summary",
    "render_check",
    "render_curve",
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
    "summary_row",
    "svm_workload",
    "sweep",
    "sweep_backup",
    "sweep_max_ig",
    "sweep_seeds",
    "sweep_staleness",
    "table1_gap_bounds",
    "time_to_loss_speedup",
    "wall_time_speedup",
]
