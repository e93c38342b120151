"""A cluster's second ``run()`` equals its first.

Nothing a run steps or draws may outlive it on the cluster: the
parameter server's and allreduce's optimizer, adpsgd's gossip partner
stream, the error-feedback residuals of a compressed run.  Each of the
nine protocols runs its quiet and random conformance cells and its
top-k cell twice on one cluster, and the two runs' fingerprints must be
equal.
"""

import pytest

from repro.harness.golden import (
    ELASTIC_PROTOCOLS,
    compression_conformance_spec,
    conformance_spec,
    run_fingerprint,
)
from repro.protocols.registry import build_cluster

CELLS = [
    (protocol, family)
    for protocol in ELASTIC_PROTOCOLS
    for family in ("none", "random", "topk")
]


@pytest.mark.parametrize("protocol,family", CELLS)
def test_a_second_run_equals_the_first(protocol, family):
    if family == "topk":
        spec = compression_conformance_spec(protocol, "topk")
    else:
        spec = conformance_spec(protocol, family)
    cluster = build_cluster(spec)
    first = run_fingerprint(cluster.run())
    assert run_fingerprint(cluster.run()) == first
