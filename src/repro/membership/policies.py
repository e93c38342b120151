"""Rewire policies: how repaired topologies get their weights back.

When the membership plane removes or re-adds a worker, the structural
repair (:meth:`~repro.graphs.topology.Topology.without_node` /
:meth:`~repro.graphs.topology.Topology.with_node`) preserves strong
connectivity but leaves the weight question open: decentralized SGD
needs a (preferably doubly) stochastic ``W`` on whatever graph the
cluster currently is.  A :class:`RewirePolicy` answers it; policies
register in :data:`REWIRE_POLICIES` (a :class:`~repro.registry.
Registry`), the churn scenario families select one by name
(``--scenario-param policy=metropolis``), and the ARCHITECTURE
walkthrough adds one.

Built-ins:

* ``uniform`` — the paper's Eq. (1): every in-neighbor (self included)
  weighs ``1/|Nin|``.  Column stochastic on any graph, doubly
  stochastic only on regular ones.
* ``metropolis`` — Metropolis-Hastings weights: symmetric and doubly
  stochastic on irregular (symmetric-support) graphs, the right choice
  when repairs unbalance degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List

from repro.graphs.weights import metropolis_hastings_weights, uniform_weights
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.graphs.topology import Topology


class RewirePolicy:
    """Derives the weight matrix for a freshly repaired topology.

    Subclasses implement :meth:`reweight`; the structural invariants
    (strong connectivity among members, self-loops, inactive isolation)
    are the derivation methods' job, the policy only owns ``W``.
    """

    name: str = "abstract"

    def reweight(self, topology: "Topology") -> "Topology":
        """Return ``topology`` with this policy's weights applied."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class UniformRewire(RewirePolicy):
    """Eq. (1) uniform in-degree weights (column stochastic)."""

    name = "uniform"

    def reweight(self, topology: "Topology") -> "Topology":
        return topology.with_weights(uniform_weights(topology))


class MetropolisRewire(RewirePolicy):
    """Metropolis-Hastings weights (doubly stochastic, symmetric support)."""

    name = "metropolis"

    def reweight(self, topology: "Topology") -> "Topology":
        return topology.with_weights(metropolis_hastings_weights(topology))


@dataclass(frozen=True)
class RewirePolicyInfo:
    """One registered rewire policy.

    Attributes:
        factory: ``f(params: dict) -> RewirePolicy``.
        summary: One-line description for docs tables.
    """

    name: str
    factory: Callable[[dict], RewirePolicy]
    summary: str = ""
    aliases: tuple = ()


#: Every registered rewire policy.
REWIRE_POLICIES: Registry[RewirePolicyInfo] = Registry(
    "rewire policy", RewirePolicyInfo, plural="rewire policies"
)

#: ``register_rewire_policy(name, factory, summary=, aliases=)`` — the
#: :class:`RewirePolicyInfo` fields.
register_rewire_policy = REWIRE_POLICIES.register
registered_rewire_policies = REWIRE_POLICIES.names


def get_rewire_policy(name: str, params: dict = None) -> RewirePolicy:
    """Build the policy registered under ``name`` (or an alias)."""
    return REWIRE_POLICIES.get(name).factory(dict(params or {}))


def rewire_policy_table() -> List[dict]:
    """``[{name, aliases, summary}, ...]`` rows for docs."""
    return REWIRE_POLICIES.table(("name", "aliases", "summary"))


register_rewire_policy(
    "uniform",
    lambda params: UniformRewire(),
    summary="Eq. (1) uniform in-degree weights (column stochastic)",
    aliases=("eq1",),
)
register_rewire_policy(
    "metropolis",
    lambda params: MetropolisRewire(),
    summary="Metropolis-Hastings weights (doubly stochastic on "
    "irregular graphs)",
    aliases=("metropolis-hastings", "mh"),
)
