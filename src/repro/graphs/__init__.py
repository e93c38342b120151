"""Communication-graph substrate: topologies, weights, spectral analysis.

Public API::

    from repro.graphs import ring_based, spectral_gap

    topo = ring_based(16)
    topo.validate()
    print(spectral_gap(topo), topo.diameter())
"""

from repro.graphs.builders import (
    FIG21_MACHINE_OF_WORKER,
    TOPOLOGIES,
    bipartite_ring,
    by_name,
    chain,
    circulant,
    complete,
    directed_ring,
    double_ring,
    fig21_setting1,
    fig21_setting2,
    fig21_setting3,
    hierarchical,
    hypercube,
    random_regular,
    ring,
    ring_based,
    star,
    torus,
)
from repro.graphs.spectral import (
    consensus_distance,
    eigenvalue_moduli,
    mixing_rounds,
    second_eigenvalue_modulus,
    spectral_gap,
)
from repro.graphs.topology import Topology, TopologyError
from repro.graphs.weights import (
    is_column_stochastic,
    is_doubly_stochastic,
    lazy_weights,
    metropolis_hastings_weights,
    uniform_weights,
)

__all__ = [
    "FIG21_MACHINE_OF_WORKER",
    "TOPOLOGIES",
    "Topology",
    "TopologyError",
    "bipartite_ring",
    "by_name",
    "chain",
    "circulant",
    "complete",
    "consensus_distance",
    "directed_ring",
    "double_ring",
    "eigenvalue_moduli",
    "fig21_setting1",
    "fig21_setting2",
    "fig21_setting3",
    "hierarchical",
    "hypercube",
    "is_column_stochastic",
    "is_doubly_stochastic",
    "lazy_weights",
    "metropolis_hastings_weights",
    "mixing_rounds",
    "random_regular",
    "ring",
    "ring_based",
    "second_eigenvalue_modulus",
    "spectral_gap",
    "star",
    "torus",
    "uniform_weights",
]
