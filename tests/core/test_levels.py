"""The one level rule against the two derivations it replaced.

:meth:`repro.core.planes.Record.levels` places every evaluation and
combine of a replaying run, hop's and the parameter server's alike, and
:func:`repro.core.planes.replay` hands each level's evaluations to one
``evaluate_rows`` call.  The references in ``tests/oracles/levels.py``
are the replaced derivations (hop's ``ready`` recurrence, the server's
version wavefront); on drawn hop, NOTIFY-ACK and parameter-server runs
over the timing-only scenario families, each ``evaluate_rows`` call
evaluates the gids the reference puts on that level, level by level.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.levels import hop_batches, ps_batches
from repro.core.config import HopConfig
from repro.graphs import ring_based
from repro.harness.golden import conformance_spec
from repro.protocols.registry import build_cluster

#: Scenario families that only shape timing (as in
#: ``tests/core/test_value_independence.py``).
TIMING_FAMILIES = (
    "none",
    "random",
    "straggler",
    "bursty",
    "tiered",
    "diurnal",
    "trace",
)


@st.composite
def hop_configs(draw):
    mode = draw(st.sampled_from(["standard", "backup", "staleness"]))
    graph = draw(st.sampled_from(["parallel", "serial"]))
    fields = {"computation_graph": graph}
    if mode == "backup":
        fields.update(mode="backup", n_backup=1)
    elif mode == "staleness":
        fields.update(
            mode="staleness",
            staleness=draw(st.integers(1, 5)),
            max_ig=draw(st.integers(2, 6)),
            stale_reduce=draw(st.sampled_from(["weighted", "uniform"])),
        )
    return HopConfig(**fields)


@st.composite
def specs(draw):
    protocol = draw(
        st.sampled_from(["hop", "notify_ack", "ps-bsp", "ps-async", "ps-ssp"])
    )
    spec = conformance_spec(
        protocol,
        draw(st.sampled_from(TIMING_FAMILIES)),
        seed=draw(st.integers(0, 2**16)),
    ).with_(
        topology=ring_based(2 * draw(st.integers(2, 8))),
        max_iter=draw(st.integers(1, 8)),
    )
    if protocol == "hop":
        spec = spec.with_(config=draw(hop_configs()))
    elif protocol == "ps-bsp":
        spec = spec.with_(ps_backup=draw(st.integers(0, 2)))
    elif protocol == "ps-ssp":
        spec = spec.with_(ps_staleness=draw(st.integers(1, 3)))
    return spec


def evaluated_levels(spec):
    """The run's record and each ``evaluate_rows`` call's gids."""
    cluster = build_cluster(spec)
    calls = []
    start = cluster._after_simulation

    def watched(runtime):
        pool = runtime.compute
        evaluate_rows = pool.evaluate_rows

        def recording(wids, ks, params, horizons):
            calls.append(sorted((wids * spec.max_iter + ks).tolist()))
            return evaluate_rows(wids, ks, params, horizons)

        pool.evaluate_rows = recording
        start(runtime)

    cluster._after_simulation = watched
    cluster.run()
    assert cluster.record is not None, "the run must replay"
    return cluster, calls


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(specs())
def test_each_level_evaluates_what_the_replaced_derivation_did(spec):
    cluster, calls = evaluated_levels(spec)
    if spec.protocol.startswith("ps-"):
        expected = ps_batches(cluster.record)
    else:
        expected = hop_batches(cluster.record, spec.topology.n)
    assert calls == [sorted(batch) for batch in expected]
    assert sum(map(len, calls)) == spec.topology.n * spec.max_iter

