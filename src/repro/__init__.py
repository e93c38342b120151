"""repro — reproduction of "Hop: Heterogeneity-Aware Decentralized
Training" (Luo, Lin, Zhuo, Qian; ASPLOS 2019).

Subpackages:

* :mod:`repro.sim` — deterministic discrete-event simulation engine.
* :mod:`repro.graphs` — communication topologies and spectral analysis.
* :mod:`repro.ml` — pure-numpy training engine (CNN / SVM workloads).
* :mod:`repro.net` — link timing, message fabric, NIC contention.
* :mod:`repro.scenarios` — the scenario engine: the compute-time
  model, the paper's random/straggler slowdowns plus bursty/tiered/
  diurnal ones, trace record/replay, fault injection (crashes, link
  flaps, message loss, churn) and the scenario registry.
* :mod:`repro.core` — the Hop protocol (update/token queues, gap
  theory, backup workers, bounded staleness, skipping, NOTIFY-ACK).
* :mod:`repro.protocols` — the protocol base class and registry, plus
  the follow-up protocols (Prague-style partial all-reduce,
  momentum-tracking gossip).
* :mod:`repro.baselines` — parameter server, ring all-reduce, AD-PSGD.
* :mod:`repro.harness` — workloads, experiment specs, figure
  reproduction, sweeps, reports.

Command line: ``python -m repro --help`` (``python -m repro protocols``
lists every registered training protocol, ``python -m repro
scenarios`` every scenario family, each with citations).
"""

__version__ = "1.0.0"
