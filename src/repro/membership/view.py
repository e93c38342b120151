"""The membership view: epoch-numbered worker set + live topology.

A :class:`MembershipView` is the cluster's current answer to "who is a
member and how are they wired": the epoch-stamped repaired
:class:`~repro.graphs.topology.Topology` plus the founding graph it
derives from.  Views are immutable; :meth:`leave` and :meth:`join`
return the successor view together with a :class:`RewireReport`
describing what the repair changed (edges added/removed, the new
spectral gap, the control cost of telling everyone).

The id space is fixed for the whole run: departed workers stay in
``range(n)`` with only their self-loop, so every ``n``-sized buffer in
the stack (queues, the ledger, the zero-copy parameter plane) keeps
its shape across epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.spectral import spectral_gap
from repro.graphs.topology import Topology, TopologyError
from repro.membership.policies import RewirePolicy, get_rewire_policy


@dataclass(frozen=True)
class RewireReport:
    """What one membership transition did to the graph.

    ``rewire_cost`` counts the control messages a real deployment would
    spend installing the repair: one notification per endpoint of every
    changed edge (self-loops never change).
    """

    kind: str  # "leave" | "join"
    worker: int
    epoch: int
    edges_added: Tuple[Tuple[int, int], ...]
    edges_removed: Tuple[Tuple[int, int], ...]
    spectral_gap: float
    n_active: int

    @property
    def rewire_cost(self) -> int:
        return 2 * (len(self.edges_added) + len(self.edges_removed))


def active_spectral_gap(topology: Topology) -> float:
    """Spectral gap of ``W`` restricted to the active members.

    Inactive nodes contribute identity rows/columns (eigenvalue 1 each)
    that would zero out the full-matrix gap; the submatrix is the
    mixing operator the live cluster actually applies.
    """
    members = sorted(topology.active)
    W = topology.W[np.ix_(members, members)]
    return spectral_gap(W)


class MembershipView:
    """One epoch of cluster membership.

    Args:
        topology: The live (possibly repaired) communication graph.
        base: The founding topology joins restore edges from; defaults
            to ``topology`` itself.
    """

    def __init__(self, topology: Topology, base: Optional[Topology] = None) -> None:
        self.topology = topology
        self.base = base if base is not None else topology

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.topology.epoch

    @property
    def active(self):
        return self.topology.active

    @property
    def n(self) -> int:
        return self.topology.n

    def is_active(self, worker: int) -> bool:
        return worker in self.topology.active

    def spectral_gap(self) -> float:
        return active_spectral_gap(self.topology)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    @classmethod
    def founding(
        cls,
        topology: Topology,
        absent: Iterable[int] = (),
        policy: str = "uniform",
    ) -> "MembershipView":
        """The epoch-0 view, with late joiners outside the cluster."""
        rewire = get_rewire_policy(policy)
        live = topology
        for worker in sorted(set(absent)):
            live = live.without_node(worker)
        if set(absent):
            live = rewire.reweight(live)
            live.validate()
        return cls(live, base=topology)

    def _transition(
        self, repaired: Topology, policy: RewirePolicy, kind: str, worker: int
    ) -> Tuple["MembershipView", RewireReport]:
        repaired = policy.reweight(repaired)
        repaired.validate()
        if not repaired.is_strongly_connected():  # pragma: no cover - validate raises first
            raise TopologyError("membership repair lost strong connectivity")
        before = self.topology.edges
        after = repaired.edges
        report = RewireReport(
            kind=kind,
            worker=worker,
            epoch=repaired.epoch,
            edges_added=tuple(sorted(after - before)),
            edges_removed=tuple(sorted(before - after)),
            spectral_gap=active_spectral_gap(repaired),
            n_active=len(repaired.active),
        )
        return MembershipView(repaired, base=self.base), report

    def leave(
        self, worker: int, policy: RewirePolicy
    ) -> Tuple["MembershipView", RewireReport]:
        """The successor view after ``worker`` departs."""
        if len(self.active) <= 2:
            raise TopologyError(
                "cannot drop below 2 active workers (quorum)"
            )
        repaired = self.topology.without_node(worker)
        return self._transition(repaired, policy, "leave", worker)

    def join(
        self,
        worker: int,
        policy: RewirePolicy,
        in_neighbors: Optional[Sequence[int]] = None,
        out_neighbors: Optional[Sequence[int]] = None,
    ) -> Tuple["MembershipView", RewireReport]:
        """The successor view after ``worker`` (re)joins.

        Neighbor sets default to the joiner's *founding* neighbors
        restricted to the current members — a rejoining worker gets its
        original edges back (and the repairs its departure caused are
        retired), which is what makes restart the leave+join special
        case rather than a parallel code path.
        """
        active = self.topology.active
        if in_neighbors is None:
            in_neighbors = [
                u
                for u in self.base.in_neighbors(worker, include_self=False)
                if u in active
            ]
        if out_neighbors is None:
            out_neighbors = [
                v
                for v in self.base.out_neighbors(worker, include_self=False)
                if v in active
            ]
        if not in_neighbors or not out_neighbors:
            # Every founding neighbor is itself departed: attach to the
            # lowest-id live members instead (deterministic, symmetric,
            # keeps the joiner strongly connected).
            fallback = sorted(w for w in active if w != worker)[:2]
            in_neighbors = sorted(set(in_neighbors) | set(fallback))
            out_neighbors = sorted(set(out_neighbors) | set(fallback))
        repaired = self.topology.with_node(
            worker, in_neighbors=in_neighbors, out_neighbors=out_neighbors
        )
        return self._transition(repaired, policy, "join", worker)

    def __repr__(self) -> str:
        return (
            f"<MembershipView epoch={self.epoch} "
            f"active={len(self.active)}/{self.n}>"
        )
