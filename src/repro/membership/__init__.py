"""The membership plane: elastic worker sets for decentralized training.

Hop's paper assumes a fixed worker set; real heterogeneous clusters
lose and gain workers mid-training (Moshpit SGD's entire premise).
This package makes membership a first-class, epoch-numbered object:

* :class:`~repro.membership.view.MembershipView` — the live worker set
  plus the repaired :class:`~repro.graphs.topology.Topology` for one
  epoch; transitions (:meth:`leave` / :meth:`join`) return successor
  views with a :class:`~repro.membership.view.RewireReport`.
* :mod:`~repro.membership.policies` — the pluggable
  :class:`RewirePolicy` registry (``uniform`` Eq. 1 weights,
  ``metropolis`` doubly stochastic), mirroring the protocol and
  scenario registries.
* :class:`~repro.membership.plan.ChurnPlan` — the scripted join/leave
  timeline built by the ``churn`` scenario families (scripted or
  Poisson-drawn at build time, always bit-deterministic).
* :class:`~repro.membership.runtime.MembershipRuntime` /
  :class:`~repro.membership.runtime.HopMembership` /
  :class:`~repro.membership.runtime.NotifyAckMembership` — the in-run
  managers that enact transitions: rewire the graph, repair queue
  fabric (token queues for hop, ACK channels for NOTIFY-ACK) and
  pending waits, and record every join/leave/rewire as a membership
  event surfaced on
  :attr:`~repro.protocols.base.TrainingRun.membership_events`.
"""

from repro.membership.plan import ChurnEvent, ChurnPlan, poisson_plan
from repro.membership.policies import (
    REWIRE_POLICIES,
    MetropolisRewire,
    RewirePolicy,
    RewirePolicyInfo,
    UniformRewire,
    get_rewire_policy,
    register_rewire_policy,
    registered_rewire_policies,
    rewire_policy_table,
)
from repro.membership.runtime import (
    HopMembership,
    MembershipError,
    MembershipRuntime,
    NotifyAckMembership,
)
from repro.membership.view import MembershipView, RewireReport, active_spectral_gap

__all__ = [
    "ChurnEvent",
    "ChurnPlan",
    "HopMembership",
    "MembershipError",
    "MembershipRuntime",
    "MembershipView",
    "MetropolisRewire",
    "NotifyAckMembership",
    "REWIRE_POLICIES",
    "RewirePolicy",
    "RewirePolicyInfo",
    "RewireReport",
    "UniformRewire",
    "active_spectral_gap",
    "get_rewire_policy",
    "poisson_plan",
    "register_rewire_policy",
    "registered_rewire_policies",
    "rewire_policy_table",
]
