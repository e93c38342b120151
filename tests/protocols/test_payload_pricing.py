"""Closed-form payload pricing across the whole protocol registry.

Every protocol's send path routes through ``payload_bytes()`` — this
suite pins each one's per-run delivered payload (``bytes_sent``)
against a closed-form expectation derived from the protocol's
communication pattern: hop/NOTIFY-ACK broadcast one update per
out-edge, allreduce ships ``2(n-1)`` chunk volumes per iteration, the
parameter servers pay push + pull, the gossip pair prices one (adpsgd)
or two (momentum-tracking's ``"tracking"`` rule: parameters and
momentum) vectors per message, and partial-allreduce moves
``2(g-1)`` chunk volumes per group of ``g``.

The same formulas are then re-checked under compression with the
scheme's ``wire_ratio`` folded in, which is the whole point of the
shared helper: one pricing law, dense or compressed.
"""

import pytest

from repro.compression import CompressionSpec
from repro.compression.registry import build_compressor
from repro.harness.golden import MAX_ITER, N_WORKERS, conformance_spec
from repro.harness.spec import run_spec
from repro.net.message import payload_bytes
from repro.protocols import registered_protocols

#: svm smoke workload: dense per-update payload (abstract MB).
U = 8.0


def _graph_edges(run):
    """Directed non-self update edges of the run's 4-worker ring graph."""
    from repro.graphs import bipartite_ring, ring_based

    topology = (
        bipartite_ring(N_WORKERS)
        if run.protocol in ("adpsgd", "momentum-tracking")
        else ring_based(N_WORKERS)
    )
    return sum(
        1
        for i in range(N_WORKERS)
        for j in topology.out_neighbors(i)
        if j != i
    )


def expected_payload(run, ratio=1.0):
    """Closed-form delivered payload bytes for one conformance run."""
    n, t = N_WORKERS, MAX_ITER
    wire = payload_bytes(U, ratio)
    protocol = run.protocol
    if protocol in ("hop", "notify_ack"):
        # One update per directed out-edge per iteration.
        return t * _graph_edges(run) * wire
    if protocol == "allreduce":
        # Chunked ring: 2(n-1) rounds, each moving n chunks of u/n.
        return t * 2 * (n - 1) * wire
    if protocol.startswith("ps-"):
        # Push (compressible gradient) + pull (dense model) per worker.
        return t * n * (wire + U)
    if protocol == "adpsgd":
        # Pairwise gossip: 2 messages per gossip, one vector each.
        return run.messages_sent * payload_bytes(U, ratio, vectors=1.0)
    if protocol == "momentum-tracking":
        # Params + momentum buffer: the 2x pricing, now via vectors=2.
        return run.messages_sent * payload_bytes(U, ratio, vectors=2.0)
    if protocol == "partial-allreduce":
        # Groups of g: 2(g-1)g messages move 2(g-1) chunk volumes, so
        # bytes = messages * wire / g.  The 4-worker pin puts everyone
        # in one group (group_size=4).
        return run.messages_sent * wire / 4
    raise AssertionError(f"no closed form for {protocol}")


@pytest.mark.parametrize("protocol", registered_protocols())
def test_dense_payload_matches_closed_form(protocol):
    run = run_spec(conformance_spec(protocol, "none"))
    assert run.bytes_sent == expected_payload(run)


@pytest.mark.parametrize("protocol", registered_protocols())
def test_compressed_payload_matches_closed_form(protocol):
    spec = conformance_spec(protocol, "none").with_(
        compression=CompressionSpec("topk", {"ratio": 0.25})
    )
    run = run_spec(spec)
    dim = run.final_params.shape[-1]
    ratio = build_compressor(
        spec.compression, dim, run.final_params.dtype
    ).wire_ratio()
    assert ratio < 1.0
    assert run.bytes_sent == pytest.approx(
        expected_payload(run, ratio=ratio), rel=1e-12
    )


def test_momentum_tracking_prices_double_adpsgd():
    """The 2x vectors rule, protocol vs protocol on identical gossips."""
    adpsgd = run_spec(conformance_spec("adpsgd", "none"))
    tracking = run_spec(conformance_spec("momentum-tracking", "none"))
    assert adpsgd.bytes_sent == adpsgd.messages_sent * U
    assert tracking.bytes_sent == tracking.messages_sent * 2.0 * U


def test_payload_bytes_identities():
    """The FP identities the golden pins rely on."""
    assert payload_bytes(U) == U  # x * 1.0 is exact
    assert payload_bytes(U, 1.0, 2.0) == 2.0 * U
    assert payload_bytes(0.0) == 0.0
    with pytest.raises(ValueError):
        payload_bytes(-1.0)
