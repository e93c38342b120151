"""Scenario specification: serializable recipe -> built Scenario.

:class:`ScenarioSpec` is to scenarios what
:class:`~repro.harness.spec.ExperimentSpec` is to runs: a frozen,
JSON-serializable description (``family`` + ``params``) that resolves
through the scenario registry into a :class:`Scenario` — the built
bundle of a slowdown model plus a fault plan that the protocol
builders consume.  It is the only heterogeneity description: the
paper's two recipes are the ``random`` and ``straggler`` families
(:data:`~repro.harness.spec.RANDOM_6X`,
:func:`~repro.harness.spec.deterministic_straggler`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.net.links import LinkModel
from repro.scenarios.faults import FaultPlan, MessageLoss, StallOverlaySlowdown
from repro.scenarios.models import SlowdownModel
from repro.scenarios.registry import get_scenario
from repro.sim.rng import RngStreams


@dataclass
class Scenario:
    """A built scenario: the objects a cluster needs, ready to wire.

    Attributes:
        name: The family it was built from (label in reports).
        slowdown: Pure heterogeneity model (no fault stalls).
        faults: Crash / link / loss plan composing with the slowdown.
        churn: Optional membership churn plan
            (:class:`~repro.membership.ChurnPlan`); only elastic
            protocols accept it (the registry gates at build time).
    """

    name: str
    slowdown: SlowdownModel
    faults: FaultPlan = field(default_factory=FaultPlan)
    churn: Optional[object] = None

    def compute_slowdown(self, native_faults: bool = False) -> SlowdownModel:
        """The slowdown a :class:`~repro.scenarios.models.ComputeModel` gets.

        Protocols with native crash support (``native_faults=True``,
        i.e. Hop) receive the pure slowdown — their workers enact the
        crash events themselves.  Everything else gets the crash
        downtime *added* onto the crash iteration's factor (not
        multiplied: the downtime is absolute dead time, independent of
        whatever slowdown hits that iteration — same semantics as
        hop's native flat timeout).
        """
        if native_faults or not self.faults.crashes:
            return self.slowdown
        return StallOverlaySlowdown(self.slowdown, self.faults.stall_model())

    def wrap_links(self, base: LinkModel) -> LinkModel:
        return self.faults.wrap_links(base)

    def message_loss(self, streams: RngStreams) -> Optional[MessageLoss]:
        return self.faults.message_loss(streams)

    def describe(self) -> str:
        parts = [self.slowdown.describe()]
        if not self.faults.empty:
            parts.append(self.faults.describe())
        if self.churn is not None and not self.churn.empty:
            parts.append(self.churn.describe())
        return " + ".join(parts)


@dataclass(frozen=True)
class ScenarioSpec:
    """Serializable description of one scenario family instance.

    ``family`` names a registered scenario builder; ``params`` are the
    family-specific knobs (all JSON-safe).  ``build`` resolves through
    :mod:`repro.scenarios.registry`.
    """

    family: str = "none"
    params: Dict[str, object] = field(default_factory=dict)

    def build(self, n_workers: int, streams: RngStreams) -> Scenario:
        """Run the family's builder; a knob it never read (a misspelled
        ``factr``) is an error, not a silent default."""
        info = get_scenario(self.family)
        params = _ReadRecorder(self.params)
        scenario = info.builder(params, n_workers, streams)
        unread = sorted(set(params) - params.read)
        if unread:
            raise ValueError(f"scenario {info.name!r} does not take {unread}")
        return scenario

    def describe(self) -> str:
        if not self.params:
            return self.family
        inner = ", ".join(
            f"{key}={value!r}" for key, value in sorted(self.params.items())
        )
        return f"{self.family}({inner})"

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"family": self.family, "params": _jsonify_params(self.params)}

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        return cls(
            family=payload["family"],
            params=_restore_params(payload.get("params", {})),
        )


class _ReadRecorder(dict):
    """A copy of a builder's params that records the keys it looked up."""

    def __init__(self, params: Dict[str, object]) -> None:
        super().__init__(params)
        self.read: set = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key) -> bool:
        self.read.add(key)
        return super().__contains__(key)


def _jsonify_params(params: Dict[str, object]) -> Dict[str, object]:
    """JSON objects need string keys; tag int-keyed maps for restore."""
    out: Dict[str, object] = {}
    for key, value in params.items():
        if isinstance(value, dict):
            out[key] = {str(k): v for k, v in value.items()}
        else:
            out[key] = value
    return out


def _restore_params(params: Dict[str, object]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for key, value in params.items():
        if isinstance(value, dict):
            try:
                out[key] = {int(k): v for k, v in value.items()}
            except (TypeError, ValueError):
                out[key] = dict(value)
        else:
            out[key] = value
    return out
