"""Builders for the communication graphs used in the paper.

Figure 11's graphs (ring, ring-based, double-ring), Figure 21's
heterogeneity-aware hierarchical graphs, plus generic circulant /
complete / star / chain builders used by tests and ablations.

All builders return :class:`~repro.graphs.topology.Topology` objects
with self-loops and, unless stated otherwise, the paper's uniform
in-degree weights (Eq. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graphs.topology import Topology, TopologyError
from repro.graphs.weights import metropolis_hastings_weights
from repro.registry import Registry


def _log2_exact(n: int) -> int:
    dimension = n.bit_length() - 1
    if n < 2 or (1 << dimension) != n:
        raise TopologyError(f"hypercube needs a power-of-two size, got {n}")
    return dimension


def _bidirectional(edges: Iterable[Tuple[int, int]]) -> Set[Tuple[int, int]]:
    out: Set[Tuple[int, int]] = set()
    for a, b in edges:
        out.add((a, b))
        out.add((b, a))
    return out


def ring(n: int) -> Topology:
    """Figure 11(a): nodes in a circle via bidirectional edges."""
    if n < 2:
        raise TopologyError("ring needs n >= 2")
    edges = _bidirectional((i, (i + 1) % n) for i in range(n))
    return Topology(n, edges, name=f"ring({n})")


def directed_ring(n: int) -> Topology:
    """A unidirectional ring (each worker sends only clockwise)."""
    if n < 2:
        raise TopologyError("directed_ring needs n >= 2")
    edges = {(i, (i + 1) % n) for i in range(n)}
    return Topology(n, edges, name=f"directed_ring({n})")


def ring_based(n: int) -> Topology:
    """Figure 11(b): ring plus an edge to the most distant node."""
    if n < 4 or n % 2 != 0:
        raise TopologyError("ring_based needs even n >= 4")
    edges = _bidirectional((i, (i + 1) % n) for i in range(n))
    edges |= _bidirectional((i, (i + n // 2) % n) for i in range(n))
    return Topology(n, edges, name=f"ring_based({n})")


def double_ring(n: int) -> Topology:
    """Figure 11(c): two ring-based graphs connected node to node."""
    if n < 8 or n % 2 != 0:
        raise TopologyError("double_ring needs even n >= 8")
    half = n // 2
    if half % 2 != 0:
        raise TopologyError("double_ring needs n/2 even (two ring-based halves)")
    edges: Set[Tuple[int, int]] = set()
    for base in (0, half):
        edges |= _bidirectional(
            (base + i, base + (i + 1) % half) for i in range(half)
        )
        edges |= _bidirectional(
            (base + i, base + (i + half // 2) % half) for i in range(half)
        )
    # Connect the two rings node-to-node.
    edges |= _bidirectional((i, half + i) for i in range(half))
    return Topology(n, edges, name=f"double_ring({n})")


def circulant(n: int, offsets: Sequence[int]) -> Topology:
    """Nodes ``i`` and ``i + o (mod n)`` connected for each offset ``o``."""
    if n < 2:
        raise TopologyError("circulant needs n >= 2")
    cleaned = sorted({o % n for o in offsets} - {0})
    if not cleaned:
        raise TopologyError("circulant needs at least one non-zero offset")
    edges: Set[Tuple[int, int]] = set()
    for i in range(n):
        for o in cleaned:
            edges |= _bidirectional([(i, (i + o) % n)])
    return Topology(n, edges, name=f"circulant({n},{cleaned})")


def complete(n: int) -> Topology:
    """All-to-all (logical All-Reduce) graph."""
    if n < 2:
        raise TopologyError("complete needs n >= 2")
    edges = _bidirectional(combinations(range(n), 2))
    return Topology(n, edges, name=f"complete({n})")


def star(n: int, center: int = 0) -> Topology:
    """Hub-and-spoke graph (the PS pattern drawn as a peer graph)."""
    if n < 2:
        raise TopologyError("star needs n >= 2")
    if not 0 <= center < n:
        raise TopologyError(f"center {center} out of range")
    edges = _bidirectional((center, i) for i in range(n) if i != center)
    return Topology(n, edges, name=f"star({n})")


def chain(n: int) -> Topology:
    """A bidirectional path 0-1-...-(n-1); maximal-diameter testbed."""
    if n < 2:
        raise TopologyError("chain needs n >= 2")
    edges = _bidirectional((i, i + 1) for i in range(n - 1))
    return Topology(n, edges, name=f"chain({n})")


def torus(rows: int, cols: int) -> Topology:
    """A 2D torus: each node connects to its 4 grid neighbors."""
    if rows < 2 or cols < 2:
        raise TopologyError("torus needs rows, cols >= 2")
    n = rows * cols
    edges: Set[Tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            edges |= _bidirectional([(node, right), (node, down)])
    return Topology(n, edges, name=f"torus({rows}x{cols})")


def hypercube(dimension: int) -> Topology:
    """A boolean hypercube on ``2**dimension`` nodes (log-degree, log-diameter)."""
    if dimension < 1:
        raise TopologyError("hypercube needs dimension >= 1")
    n = 1 << dimension
    edges: Set[Tuple[int, int]] = set()
    for node in range(n):
        for bit in range(dimension):
            edges |= _bidirectional([(node, node ^ (1 << bit))])
    return Topology(n, edges, name=f"hypercube({dimension})")


def random_regular(n: int, degree: int, seed: int = 0) -> Topology:
    """A random ``degree``-regular connected graph (expander-like).

    Retries the configuration-model draw until the result is simple
    and connected; regular graphs keep Eq. (1) doubly stochastic.
    """
    import networkx as nx

    if degree < 2 or degree >= n:
        raise TopologyError("random_regular needs 2 <= degree < n")
    if (n * degree) % 2 != 0:
        raise TopologyError("n * degree must be even")
    for attempt in range(100):
        graph = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(graph):
            edges = _bidirectional(graph.edges())
            return Topology(
                n, edges, name=f"random_regular({n},d={degree},seed={seed})"
            )
    raise TopologyError(
        f"could not sample a connected {degree}-regular graph on {n} nodes"
    )


def bipartite_ring(n: int) -> Topology:
    """An even-length ring: bipartite, as required by AD-PSGD."""
    if n < 2 or n % 2 != 0:
        raise TopologyError("bipartite_ring needs even n >= 2")
    return Topology(
        n,
        _bidirectional((i, (i + 1) % n) for i in range(n)),
        name=f"bipartite_ring({n})",
    )


# ----------------------------------------------------------------------
# Figure 21: heterogeneity-aware hierarchical graphs
# ----------------------------------------------------------------------
def hierarchical(
    group_sizes: Sequence[int],
    shared_gateway: bool = True,
    name: Optional[str] = None,
) -> Topology:
    """Machine-aware graph: all-reduce within machines, ring between.

    Workers on the same physical machine form a complete subgraph
    (cheap intra-machine links); machines are joined in a ring through
    gateway workers (expensive inter-machine links).

    Args:
        group_sizes: Workers per machine, e.g. ``(3, 3, 2)`` for the
            paper's "8 workers unevenly distributed over 3 machines".
        shared_gateway: If True, one worker per machine carries both of
            its machine's ring links (Figure 21 setting 2 flavor); if
            False, different workers carry the incoming and outgoing
            ring links (setting 3 flavor).
        name: Override the auto-generated name.

    Uses Metropolis-Hastings weights so ``W`` is doubly stochastic
    despite the irregular degrees.
    """
    if len(group_sizes) < 2:
        raise TopologyError("hierarchical needs at least 2 machines")
    if any(size < 1 for size in group_sizes):
        raise TopologyError("every machine needs at least one worker")

    groups: List[List[int]] = []
    start = 0
    for size in group_sizes:
        groups.append(list(range(start, start + size)))
        start += size
    n = start

    edges: Set[Tuple[int, int]] = set()
    for group in groups:
        edges |= _bidirectional(combinations(group, 2))

    n_machines = len(groups)
    for k in range(n_machines):
        src_group = groups[k]
        dst_group = groups[(k + 1) % n_machines]
        if shared_gateway:
            a, b = src_group[0], dst_group[0]
        else:
            a = src_group[0]
            b = dst_group[-1]
        edges |= _bidirectional([(a, b)])

    label = name or (
        f"hierarchical({tuple(group_sizes)},"
        f"{'shared' if shared_gateway else 'distinct'})"
    )
    topo = Topology(n, edges, name=label)
    return topo.with_weights(metropolis_hastings_weights(topo))


def fig21_setting1() -> Topology:
    """Figure 21(a): the symmetric baseline for 8 workers.

    The circulant graph on 8 nodes with offsets {1, 2, 4} reproduces
    the paper's reported spectral gap of 0.6667 exactly (second-largest
    eigenvalue modulus 1/3 under uniform weights with self-loops).
    """
    topo = circulant(8, [1, 2, 4])
    return Topology(topo.n, topo.edges, name="fig21_setting1")


def fig21_setting2() -> Topology:
    """Figure 21(b): machine-aware graph, shared gateways (3/3/2 split)."""
    return hierarchical((3, 3, 2), shared_gateway=True, name="fig21_setting2")


def fig21_setting3() -> Topology:
    """Figure 21(c): machine-aware graph, distinct gateways (3/3/2 split)."""
    return hierarchical((3, 3, 2), shared_gateway=False, name="fig21_setting3")


#: Machine assignment for the Figure 21 experiments: worker -> machine.
FIG21_MACHINE_OF_WORKER: Tuple[int, ...] = (0, 0, 0, 1, 1, 1, 2, 2)


@dataclass(frozen=True)
class TopologyInfo:
    """One registered topology family: ``builder(n) -> Topology``."""

    name: str
    builder: Callable[[int], Topology]
    aliases: tuple = ()


#: The topologies the paper's figures, the CLI and the service name.
TOPOLOGIES: Registry[TopologyInfo] = Registry(
    "topology", TopologyInfo, plural="topologies", error=TopologyError
)
TOPOLOGIES.register("ring", ring)
TOPOLOGIES.register("ring_based", ring_based, aliases=("ring-based",))
TOPOLOGIES.register("double_ring", double_ring, aliases=("double-ring",))
TOPOLOGIES.register("complete", complete)
TOPOLOGIES.register("chain", chain)
TOPOLOGIES.register("star", star)
TOPOLOGIES.register("directed_ring", directed_ring)
TOPOLOGIES.register("bipartite_ring", bipartite_ring)
TOPOLOGIES.register("hypercube", lambda n: hypercube(_log2_exact(n)))


def by_name(name: str, n: int) -> Topology:
    """``name``'s topology on ``n`` workers (:class:`TopologyError` for
    unknown names and sizes the builder rejects)."""
    return TOPOLOGIES.get(name).builder(n)
