"""The protocol registry: name -> cluster builder.

Every training protocol registers in :data:`PROTOCOLS` (a
:class:`~repro.registry.Registry`) under a stable name; the harness,
the CLI and the examples resolve protocols there instead of hard-coding
cluster classes.  Adding one is a
:class:`~repro.protocols.base.ProtocolCluster` subclass, a builder and
a :func:`register_protocol` call.

Builders receive the full :class:`~repro.harness.spec.ExperimentSpec`
and return an un-run cluster; :func:`spec_common_kwargs` converts the
spec's workload/heterogeneity fields into the constructor arguments
every :class:`~repro.protocols.base.ProtocolCluster` accepts.

The built-in protocol modules register themselves when imported, and
:data:`PROTOCOLS` imports them on the first lookup, which keeps
``import repro.protocols`` free of import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.harness.spec import ExperimentSpec
    from repro.protocols.base import ProtocolCluster


#: Modules that register the built-in protocols as an import side effect.
_BUILTIN_MODULES = (
    "repro.core.cluster",
    "repro.baselines.ps",
    "repro.baselines.allreduce",
    "repro.baselines.adpsgd",
    "repro.protocols.partial_allreduce",
    "repro.protocols.momentum_tracking",
)


@dataclass(frozen=True)
class ProtocolInfo:
    """One registered protocol.

    Attributes:
        builder: ``f(spec) -> ProtocolCluster`` (un-run).
        summary: One-line description for ``--help`` and docs tables.
        paper: Citation for the protocol's source.
        native_faults: The builder wires scenario crash events into the
            cluster itself (workers enact crash/restart natively), so
            :func:`spec_common_kwargs` must NOT also fold the downtime
            into the compute model.  Set this on registration whenever
            the builder passes ``crash_events`` through — otherwise the
            outage is charged twice.
        elastic: The builder wires membership churn plans
            (:class:`~repro.membership.ChurnPlan`) into the cluster, so
            the protocol survives dynamic worker join/leave.
            Non-elastic protocols reject churn scenarios at build time
            (:func:`build_cluster`) and keep static behavior
            bit-identically.
    """

    name: str
    builder: Callable[["ExperimentSpec"], "ProtocolCluster"]
    summary: str = ""
    paper: str = ""
    aliases: tuple = ()
    native_faults: bool = False
    elastic: bool = False


#: Every registered protocol; the built-in modules load on first lookup.
PROTOCOLS: Registry[ProtocolInfo] = Registry(
    "protocol", ProtocolInfo, builtins=_BUILTIN_MODULES
)

#: ``register_protocol(name, builder, summary=, paper=, aliases=,
#: native_faults=, elastic=)`` — the :class:`ProtocolInfo` fields.
register_protocol = PROTOCOLS.register
get_protocol = PROTOCOLS.get
registered_protocols = PROTOCOLS.names


def protocol_table() -> List[dict]:
    """``[{name, aliases, summary, paper, elastic}, ...]`` rows for docs/CLI."""
    return PROTOCOLS.table(("name", "aliases", "summary", "paper", "elastic"))


def spec_common_kwargs(spec: "ExperimentSpec") -> dict:
    """Constructor kwargs shared by every :class:`ProtocolCluster`.

    Heterogeneity comes from the spec's *scenario* (the legacy
    ``slowdown`` field converts transparently).  Protocols registered
    with ``native_faults=True`` (hop: its workers enact crash/restart
    events themselves) get the pure slowdown model; for every other
    protocol the crash downtime is composed into the compute model as
    an equivalent stall, so fault scenarios run under the whole
    registry.  The scenario's churn plan travels as ``churn``; the
    cluster normalizes it (:class:`~repro.protocols.base.ProtocolCluster`).
    """
    workload = spec.workload
    scenario = spec.built_scenario()
    native_faults = get_protocol(spec.protocol).native_faults

    from repro.hetero.compute import ComputeModel

    compute_model = ComputeModel(
        base_time=workload.base_compute_time,
        n_workers=spec.topology.n,
        slowdown=scenario.compute_slowdown(native_faults=native_faults),
    )
    return dict(
        model_factory=workload.model_factory,
        dataset=workload.dataset,
        optimizer=workload.optimizer_factory(),
        batch_size=workload.batch_size,
        compute_model=compute_model,
        max_iter=spec.max_iter,
        seed=spec.seed,
        update_size=workload.update_size,
        trace_channels=spec.trace_channels,
        compression=spec.compression,
        churn=scenario.churn,
    )


def build_cluster(spec: "ExperimentSpec") -> "ProtocolCluster":
    """Build the (un-run) cluster described by ``spec.protocol``.

    Raises:
        ValueError: When the scenario carries a membership churn plan
            and the protocol is not elastic — a barrier or a central
            server has no meaningful partial membership, so the gate
            fails loudly instead of silently running a static cluster.
    """
    info = get_protocol(spec.protocol)
    churn = spec.built_scenario().churn
    if churn is not None and not churn.empty and not info.elastic:
        raise ValueError(
            f"protocol {spec.protocol!r} is not elastic and cannot run "
            "membership churn scenarios; elastic protocols: "
            f"{', '.join(PROTOCOLS.names(where=lambda entry: entry.elastic))}"
        )
    return info.builder(spec)
