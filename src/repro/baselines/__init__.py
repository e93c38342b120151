"""Baseline systems the paper compares against (or discusses).

* :class:`ParameterServerCluster` — centralized PS (BSP / async / SSP,
  with backup workers) behind a shared-NIC hotspot (Figure 13's foil).
  Registered as ``"ps-bsp"`` (alias ``"ps"``), ``"ps-async"``,
  ``"ps-ssp"``.
* :class:`RingAllReduceCluster` — synchronous chunked ring all-reduce.
  Registered as ``"allreduce"``.
* :class:`ADPSGDCluster` — asynchronous decentralized gossip SGD on a
  bipartite graph (the Section 5 comparison point).  Registered as
  ``"adpsgd"``, and with its heterogeneity-robust momentum rules as
  ``"momentum-tracking"``.

All three subclass :class:`repro.protocols.ProtocolCluster` and are
resolved by name through :mod:`repro.protocols.registry` — see
``python -m repro protocols`` for the full table.
"""

from repro.baselines.adpsgd import ADPSGDCluster
from repro.baselines.allreduce import RingAllReduceCluster
from repro.baselines.ps import ParameterServerCluster

__all__ = [
    "ADPSGDCluster",
    "ParameterServerCluster",
    "RingAllReduceCluster",
]
