"""The scenario registry: name -> scenario builder.

Every scenario *family* (a parameterized heterogeneity-plus-faults
recipe) registers in :data:`SCENARIOS` (a :class:`~repro.registry.
Registry`); the harness, the CLI and the conformance matrix resolve
families there.  Adding one is a builder ``f(params, n_workers, streams)
-> Scenario`` and a :func:`register_scenario` call (the ARCHITECTURE
walkthrough, mirrored by a test).

Families flagged ``universal=False`` cannot run under every protocol —
permanent crashes deadlock synchronous protocols by construction — and
are therefore excluded from the cross-protocol conformance matrix;
everything else must pass it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.scenarios.spec import Scenario
    from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class ScenarioInfo:
    """One registered scenario family.

    Attributes:
        builder: ``f(params, n_workers, streams) -> Scenario``.
        summary: One-line description for ``--help`` and docs tables.
        paper: Citation for the regime the family models.
        universal: Whether every registered protocol can complete under
            this family (the conformance-matrix contract).  Only
            permanently-lethal families should clear this.
    """

    name: str
    builder: Callable[[dict, int, "RngStreams"], "Scenario"]
    summary: str = ""
    paper: str = ""
    aliases: tuple = ()
    universal: bool = True


#: Every registered family; the built-in module loads on first lookup.
SCENARIOS: Registry[ScenarioInfo] = Registry(
    "scenario", ScenarioInfo, builtins=("repro.scenarios.builtin",)
)

#: ``register_scenario(name, builder, summary=, paper=, aliases=,
#: universal=)`` — the :class:`ScenarioInfo` fields.
register_scenario = SCENARIOS.register
get_scenario = SCENARIOS.get


def registered_scenarios(
    include_aliases: bool = False, universal_only: bool = False
) -> List[str]:
    """Sorted names of every registered scenario family."""
    return SCENARIOS.names(
        include_aliases,
        where=(lambda info: info.universal) if universal_only else None,
    )


def scenario_table() -> List[dict]:
    """``[{name, aliases, summary, paper, universal}, ...]`` rows."""
    return SCENARIOS.table(
        ("name", "aliases", "summary", "paper", "universal")
    )
