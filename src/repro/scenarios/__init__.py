"""Composable training scenarios: heterogeneity + fault injection.

A *scenario* bundles everything hostile about the environment a
training run faces: a compute slowdown model (who is slow, when) and a
fault plan (who crashes, which links flap, which messages drop).
Scenario *families* are registered by name in :data:`SCENARIOS` and
resolved from
:class:`ScenarioSpec`, the serializable description that travels on
:class:`~repro.harness.spec.ExperimentSpec`.

Public API::

    from repro.scenarios import ScenarioSpec, registered_scenarios

    print(registered_scenarios())  # sorted family names

    spec = ExperimentSpec(..., scenario=ScenarioSpec("bursty"))
    run = run_spec(spec)
    print(run.fault_events)

To add a family: write a builder ``f(params, n_workers, streams) ->
Scenario`` and call :func:`register_scenario` — the CLI
(``repro scenarios``, ``repro train --scenario``), the conformance
matrix and the fig23 grid pick it up automatically.  See
``docs/ARCHITECTURE.md`` for the worked example.
"""

from repro.scenarios.faults import (
    CrashEvent,
    CrashStallSlowdown,
    FaultPlan,
    FlappingLinkModel,
    LinkFlap,
    MessageLoss,
    StallOverlaySlowdown,
)
from repro.scenarios.models import (
    DiurnalSlowdown,
    MarkovSlowdown,
    TieredSlowdown,
)
from repro.scenarios.registry import (
    SCENARIOS,
    ScenarioInfo,
    get_scenario,
    register_scenario,
    registered_scenarios,
    scenario_table,
)
from repro.scenarios.churn_trace import (
    diurnal_availability_plan,
    load_churn_trace,
    record_churn_trace,
    spot_preemption_plan,
)
from repro.scenarios.spec import Scenario, ScenarioSpec
from repro.scenarios.trace import (
    RecordingSlowdown,
    TraceSlowdown,
    record_run_factors,
)

__all__ = [
    "CrashEvent",
    "CrashStallSlowdown",
    "DiurnalSlowdown",
    "FaultPlan",
    "FlappingLinkModel",
    "LinkFlap",
    "MarkovSlowdown",
    "MessageLoss",
    "RecordingSlowdown",
    "SCENARIOS",
    "Scenario",
    "ScenarioInfo",
    "ScenarioSpec",
    "StallOverlaySlowdown",
    "TieredSlowdown",
    "TraceSlowdown",
    "diurnal_availability_plan",
    "get_scenario",
    "load_churn_trace",
    "record_churn_trace",
    "record_run_factors",
    "register_scenario",
    "registered_scenarios",
    "scenario_table",
    "spot_preemption_plan",
]
