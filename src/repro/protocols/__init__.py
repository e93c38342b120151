"""Pluggable training protocols: shared scaffolding, registry, variants.

This package is the extension point of the repository.  A *protocol* is
one way of coordinating ``n`` model replicas during training; all of
them — Hop itself, the baselines it is compared against, and the
follow-up protocols — are built on the same base class and resolved by
name through one registry.

Layers:

* :mod:`repro.protocols.base` — :class:`ProtocolCluster` (the shared
  build/simulate/measure skeleton), :class:`TrainingRun` (the result
  record every protocol produces) and :class:`DeadlockError`.
* :mod:`repro.protocols.registry` — :data:`PROTOCOLS`, the name ->
  builder table used by the harness, the CLI and the examples.
* :mod:`repro.protocols.partial_allreduce` — Prague-style randomized
  partial all-reduce [Luo et al., arXiv:1909.08029].

The Hop protocol itself lives in :mod:`repro.core.cluster`, the
parameter server / all-reduce / AD-PSGD baselines in
:mod:`repro.baselines` (AD-PSGD's round also carries the
heterogeneity-robust momentum rules of ``momentum-tracking``); each
registers itself on import.

Public API::

    from repro.protocols import build_cluster, registered_protocols

    print(registered_protocols())  # sorted canonical names
    run = build_cluster(spec).run()   # spec: repro.harness.spec.ExperimentSpec

To add a protocol, subclass :class:`ProtocolCluster`, implement
``_start`` plus the description hooks, and call
:func:`register_protocol` — ``docs/ARCHITECTURE.md`` walks through a
complete example.
"""

from repro.protocols.base import (
    DeadlockError,
    ProtocolCluster,
    ProtocolRuntime,
    TrainingRun,
)
from repro.protocols.registry import (
    PROTOCOLS,
    ProtocolInfo,
    build_cluster,
    get_protocol,
    protocol_table,
    register_protocol,
    registered_protocols,
    spec_common_kwargs,
)

__all__ = [
    "DeadlockError",
    "PROTOCOLS",
    "ProtocolCluster",
    "ProtocolInfo",
    "ProtocolRuntime",
    "TrainingRun",
    "build_cluster",
    "get_protocol",
    "protocol_table",
    "register_protocol",
    "registered_protocols",
    "spec_common_kwargs",
]
