"""Communication topologies for decentralized training.

A :class:`Topology` is a strongly connected directed graph over worker
ids ``0..n-1`` with a weighted adjacency matrix ``W``, held as one
weight per edge (O(n + m)) and densified only when :attr:`Topology.W`
is read.  Following the paper's notation (Section 3.1):

* an edge ``(i, j)`` means worker ``i`` sends updates to worker ``j``;
* every node has a self-loop (``(i, i) in E`` for all ``i``), i.e. the
  local update always participates in the local average;
* ``W[i, j]`` is the influence of worker ``i``'s update on worker ``j``
  (the paper's :math:`W_{ij}`); for well-behaved training ``W`` should
  be doubly stochastic.

Elastic membership (the membership plane, :mod:`repro.membership`)
extends the static picture: a topology carries an *active* node set
over a fixed id space ``0..n-1`` and an *epoch* stamp, and
:meth:`Topology.without_node` / :meth:`Topology.with_node` derive
repaired graphs for worker leave/join.  Removal bridges the departed
node's in-neighbors to its out-neighbors, which provably preserves
strong connectivity among the remaining nodes; the bridge edges carry
provenance so a later re-join of the same node retires exactly the
repairs its departure caused (``without_node(i).with_node(i)``
round-trips the edge support).  Inactive nodes keep only their
self-loop, so buffers sized by ``n`` (the zero-copy parameter plane,
queues, gap trackers) never need to shrink or shift ids.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np


class TopologyError(ValueError):
    """Raised for malformed communication graphs."""


def _strongly_connects(
    members: FrozenSet[int], edges: Iterable[Tuple[int, int]]
) -> bool:
    """Whether ``edges`` strongly connect ``members``: every member is
    reachable from one of them, forwards and backwards."""
    forward: Dict[int, List[int]] = {}
    backward: Dict[int, List[int]] = {}
    for src, dst in edges:
        forward.setdefault(src, []).append(dst)
        backward.setdefault(dst, []).append(src)
    root = min(members)
    for adjacency in (forward, backward):
        seen = {root}
        stack = [root]
        while stack:
            for v in adjacency.get(stack.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if not members <= seen:
            return False
    return True


class Topology:
    """A directed communication graph with self-loops and edge weights.

    Args:
        n: Number of workers.
        edges: Directed edges ``(src, dst)``, self-loops optional (they
            are always added).
        weights: Optional explicit dense weight matrix ``W`` with
            ``W[i, j] > 0`` only on edges; its edge entries are kept,
            the array is not.  If omitted, uniform in-degree weights
            (the paper's Eq. 1) are used.
        name: Human-readable topology name for reports.
        active: Optional member subset of ``range(n)``.  Non-members
            may carry no edges besides their self-loop.  ``None`` means
            every node is a member (the static case).
        epoch: Membership epoch stamp; derivation methods
            (:meth:`without_node`, :meth:`with_node`) increment it.
        repair_sources: Provenance of repair edges added by
            :meth:`without_node`: ``{(src, dst): frozenset(removed
            nodes that caused it)}``.  Internal to the derivation
            round-trip; defaults to empty.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]],
        weights: Optional[np.ndarray] = None,
        name: str = "custom",
        active: Optional[Iterable[int]] = None,
        epoch: int = 0,
        repair_sources: Optional[Dict[Tuple[int, int], FrozenSet[int]]] = None,
    ) -> None:
        if n < 1:
            raise TopologyError(f"need at least one worker, got n={n}")
        self.n = int(n)
        self.name = name
        self.epoch = int(epoch)
        if active is None:
            self.active: FrozenSet[int] = frozenset(range(n))
        else:
            self.active = frozenset(int(i) for i in active)
            if not self.active:
                raise TopologyError("need at least one active worker")
            if not all(0 <= i < n for i in self.active):
                raise TopologyError(f"active set {sorted(self.active)} out of range")
        self.repair_sources: Dict[Tuple[int, int], FrozenSet[int]] = dict(
            repair_sources or {}
        )

        edge_set: Set[Tuple[int, int]] = set()
        full = len(self.active) == n
        for src, dst in edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise TopologyError(f"edge ({src}, {dst}) out of range for n={n}")
            if not full and src != dst and (
                src not in self.active or dst not in self.active
            ):
                raise TopologyError(
                    f"edge ({src}, {dst}) touches an inactive node "
                    f"(active: {sorted(self.active)})"
                )
            edge_set.add((int(src), int(dst)))
        for i in range(n):
            edge_set.add((i, i))
        self._edges: FrozenSet[Tuple[int, int]] = frozenset(edge_set)

        self._in: List[Tuple[int, ...]] = [() for _ in range(n)]
        self._out: List[Tuple[int, ...]] = [() for _ in range(n)]
        in_lists: List[List[int]] = [[] for _ in range(n)]
        out_lists: List[List[int]] = [[] for _ in range(n)]
        for src, dst in sorted(edge_set):
            out_lists[src].append(dst)
            in_lists[dst].append(src)
        self._in = [tuple(sorted(lst)) for lst in in_lists]
        self._out = [tuple(sorted(lst)) for lst in out_lists]

        #: ``W[i, j]`` for every edge, in ``_in`` order: the in-edges of
        #: node 0 by ascending source, then node 1's, ...
        if weights is None:
            # The paper's Eq. (1): each in-neighbor (incl. self) weighs
            # 1/|Nin|.
            in_degrees = np.array([len(srcs) for srcs in self._in])
            self._weights = np.repeat(1.0 / in_degrees, in_degrees)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (n, n):
                raise TopologyError(
                    f"weight matrix shape {weights.shape} != ({n}, {n})"
                )
            self._validate_weight_support(weights)
            self._weights = weights[self._edge_arrays()]

        self._path_matrix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------
    def _edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sources, targets)`` of every edge, in ``_in`` order."""
        sources = np.fromiter(
            chain.from_iterable(self._in), dtype=np.intp, count=len(self._edges)
        )
        targets = np.repeat(
            np.arange(self.n), [len(srcs) for srcs in self._in]
        )
        return sources, targets

    @property
    def W(self) -> np.ndarray:
        """The dense weight matrix ``W[i, j]``.

        Built from the per-edge weights on every read (O(n^2) time and
        memory, nothing cached): take it once, and only where a dense
        matrix is the point (spectra, reports, tests).
        """
        W = np.zeros((self.n, self.n))
        W[self._edge_arrays()] = self._weights
        W.setflags(write=False)
        return W

    def _weight_sums(self) -> Tuple[np.ndarray, np.ndarray]:
        """Column sums and row sums of ``W``, from the per-edge weights."""
        sources, targets = self._edge_arrays()
        return (
            np.bincount(targets, weights=self._weights, minlength=self.n),
            np.bincount(sources, weights=self._weights, minlength=self.n),
        )

    def _validate_weight_support(self, W: np.ndarray) -> None:
        """Weights are non-negative and positive only on edges.

        Names the first offending pair in row-major order.
        """
        sources, targets = self._edge_arrays()
        bad = W > 0
        bad[sources, targets] = False  # positive is fine on an edge
        bad |= W < 0
        if not bad.any():
            return
        i, j = divmod(int(bad.argmax()), self.n)
        if W[i, j] < 0:
            raise TopologyError(f"negative weight at ({i}, {j})")
        raise TopologyError(f"weight {W[i, j]} on non-edge ({i}, {j})")

    def with_weights(self, weights: np.ndarray) -> "Topology":
        """A copy of this topology with a different weight matrix."""
        return Topology(
            self.n,
            self._edges,
            weights=weights,
            name=self.name,
            active=self.active,
            epoch=self.epoch,
            repair_sources=self.repair_sources,
        )

    # ------------------------------------------------------------------
    # Membership derivation (the membership plane's structural layer)
    # ------------------------------------------------------------------
    def is_active(self, node: int) -> bool:
        return node in self.active

    def active_nodes(self) -> Tuple[int, ...]:
        """Member ids, sorted (stable iteration order for repairs)."""
        return tuple(sorted(self.active))

    def without_node(self, node: int, name: Optional[str] = None) -> "Topology":
        """An epoch-incremented repaired graph with ``node`` removed.

        The departed node keeps only its self-loop; every (in-neighbor,
        out-neighbor) pair of the removed node is bridged, which
        preserves strong connectivity among the remaining members (any
        path through ``node`` contracts onto a bridge edge).  Bridge
        edges record ``node`` as their cause so :meth:`with_node` can
        retire them exactly.  Weights are re-derived uniformly (Eq. 1);
        apply a :class:`~repro.membership.policies.RewirePolicy` for a
        different scheme.
        """
        if node not in self.active:
            raise TopologyError(f"node {node} is not an active member")
        remaining = self.active - {node}
        if not remaining:
            raise TopologyError("cannot remove the last active worker")
        edges: Set[Tuple[int, int]] = {
            (s, d) for s, d in self._edges if s != node and d != node
        }
        repair = {
            edge: causes
            for edge, causes in self.repair_sources.items()
            if node not in edge
        }
        ins = [
            u
            for u in self.in_neighbors(node, include_self=False)
            if u in remaining
        ]
        outs = [
            v
            for v in self.out_neighbors(node, include_self=False)
            if v in remaining
        ]
        for u in ins:
            for v in outs:
                if u == v:
                    continue
                if (u, v) not in edges:
                    edges.add((u, v))
                    repair[(u, v)] = frozenset({node})
                elif (u, v) in repair:
                    # An existing repair edge this removal also needs:
                    # it must survive until *every* cause has rejoined.
                    repair[(u, v)] = repair[(u, v)] | {node}
        return Topology(
            self.n,
            edges,
            name=name or self.name,
            active=remaining,
            epoch=self.epoch + 1,
            repair_sources=repair,
        )

    def with_node(
        self,
        node: int,
        in_neighbors: Sequence[int] = (),
        out_neighbors: Sequence[int] = (),
        name: Optional[str] = None,
    ) -> "Topology":
        """An epoch-incremented graph with ``node`` (re)joined.

        ``in_neighbors`` / ``out_neighbors`` are the member nodes the
        joiner wires to (typically its original neighbors restricted to
        the current active set).  Repair edges caused *solely* by this
        node's earlier departure are retired, so a remove/re-add pair
        round-trips the edge support exactly.

        Retirement is *deferred* when it would disconnect the members:
        the joiner's bridges may be the only path over a second node
        that departed while it was away (its own bridges over that
        node died with it and are not among the neighbors it rejoins
        with).  The bridges then stay, with an empty cause set, and
        every later join retries retiring them.
        """
        if node in self.active:
            raise TopologyError(f"node {node} is already an active member")
        if not (0 <= node < self.n):
            raise TopologyError(f"node {node} out of range for n={self.n}")
        neighbors = set(in_neighbors) | set(out_neighbors)
        for other in neighbors:
            if other == node:
                continue
            if other not in self.active:
                raise TopologyError(
                    f"cannot wire joiner {node} to inactive node {other}"
                )
        if not (neighbors - {node}):
            raise TopologyError(
                f"joiner {node} needs at least one member neighbor"
            )
        active = self.active | {node}
        edges: Set[Tuple[int, int]] = set(self._edges)
        for u in in_neighbors:
            if u != node:
                edges.add((int(u), node))
        for v in out_neighbors:
            if v != node:
                edges.add((node, int(v)))
        repair = {
            edge: causes - {node}
            for edge, causes in self.repair_sources.items()
        }
        # Bridges no departure needs any more: this joiner's, plus any
        # an earlier join had to defer (they carry an empty cause set).
        retirable = {edge for edge, causes in repair.items() if not causes}
        if retirable and _strongly_connects(active, edges - retirable):
            edges -= retirable
            repair = {e: causes for e, causes in repair.items() if causes}
        return Topology(
            self.n,
            edges,
            name=name or self.name,
            active=active,
            epoch=self.epoch + 1,
            repair_sources=repair,
        )

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """All directed edges, including self-loops."""
        return self._edges

    def in_neighbors(self, node: int, include_self: bool = True) -> Tuple[int, ...]:
        """Workers whose updates ``node`` consumes (paper's ``Nin``).

        The paper's ``|Nin(i)|`` counts the self-loop; pass
        ``include_self=False`` for the strict neighbor set.
        """
        neighbors = self._in[node]
        if include_self:
            return neighbors
        return tuple(v for v in neighbors if v != node)

    def out_neighbors(self, node: int, include_self: bool = True) -> Tuple[int, ...]:
        """Workers that consume ``node``'s updates (paper's ``Nout``)."""
        neighbors = self._out[node]
        if include_self:
            return neighbors
        return tuple(v for v in neighbors if v != node)

    def in_degree(self, node: int, include_self: bool = True) -> int:
        return len(self.in_neighbors(node, include_self))

    def out_degree(self, node: int, include_self: bool = True) -> int:
        return len(self.out_neighbors(node, include_self))

    def max_degree(self, include_self: bool = False) -> int:
        return max(self.in_degree(i, include_self) for i in range(self.n))

    # ------------------------------------------------------------------
    # Paths (Theorem 1 quantities)
    # ------------------------------------------------------------------
    def shortest_path_matrix(self) -> np.ndarray:
        """``D[i, j]`` = length of the shortest directed path i -> j.

        Self-loops do not shorten paths (``D[i, i] == 0``).  Unreachable
        pairs get ``inf`` (which :meth:`validate` rejects).
        """
        if self._path_matrix is not None:
            return self._path_matrix
        n = self.n
        D = np.full((n, n), np.inf)
        for source in range(n):
            D[source, source] = 0.0
            frontier = [source]
            depth = 0
            seen = {source}
            while frontier:
                depth += 1
                next_frontier = []
                for u in frontier:
                    for v in self._out[u]:
                        if v not in seen:
                            seen.add(v)
                            D[source, v] = depth
                            next_frontier.append(v)
                frontier = next_frontier
        self._path_matrix = D
        return D

    def path_length(self, src: int, dst: int) -> float:
        """Shortest directed path length ``src -> dst`` in hops."""
        return float(self.shortest_path_matrix()[src, dst])

    def diameter(self) -> float:
        """Longest shortest path over all ordered pairs."""
        D = self.shortest_path_matrix()
        return float(np.max(D[np.isfinite(D)]))

    def is_strongly_connected(self) -> bool:
        """Every active member reaches every other active member.

        Inactive nodes (only their self-loop) are outside the
        communication fabric and do not count.  Two traversals from one
        member, not the all-pairs :meth:`shortest_path_matrix`.
        """
        return _strongly_connects(self.active, self._edges)

    def is_bipartite(self) -> bool:
        """Two-colorability of the underlying undirected graph.

        Self-loops are ignored (they are a modelling convention, not a
        communication edge).  AD-PSGD requires bipartite graphs.
        """
        color: Dict[int, int] = {}
        for start in range(self.n):
            if start in color:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for v in sorted(set(self._out[u]) | set(self._in[u])):
                    if v == u:
                        continue
                    if v not in color:
                        color[v] = 1 - color[u]
                        stack.append(v)
                    elif color[v] == color[u]:
                        return False
        return True

    def bipartite_sets(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The two color classes; raises if the graph is not bipartite."""
        if not self.is_bipartite():
            raise TopologyError(f"{self.name!r} is not bipartite")
        color: Dict[int, int] = {}
        for start in range(self.n):
            if start in color:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for v in sorted(set(self._out[u]) | set(self._in[u])):
                    if v == u or v in color:
                        continue
                    color[v] = 1 - color[u]
                    stack.append(v)
        zeros = tuple(i for i in range(self.n) if color[i] == 0)
        ones = tuple(i for i in range(self.n) if color[i] == 1)
        return zeros, ones

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, require_doubly_stochastic: bool = False) -> None:
        """Check the properties decentralized training relies on.

        Raises:
            TopologyError: If the graph is not strongly connected, or
                (optionally) if ``W`` is not doubly stochastic.
        """
        if not self.is_strongly_connected():
            raise TopologyError(f"{self.name!r} is not strongly connected")
        col_sums, row_sums = self._weight_sums()
        self._require_unit_sums("column", col_sums)
        if require_doubly_stochastic:
            self._require_unit_sums("row", row_sums)

    def _require_unit_sums(self, axis: str, sums: np.ndarray) -> None:
        """Raise naming the first ``axis`` whose weights do not sum to 1."""
        off = ~np.isclose(sums, 1.0, atol=1e-9)
        if off.any():
            first = int(off.argmax())
            raise TopologyError(
                f"{self.name!r}: weight {axis} {first} sums to "
                f"{sums[first]}, not 1"
            )

    def is_doubly_stochastic(self, atol: float = 1e-9) -> bool:
        col_sums, row_sums = self._weight_sums()
        return bool(
            np.allclose(col_sums, 1.0, atol=atol)
            and np.allclose(row_sums, 1.0, atol=atol)
        )

    def is_regular(self) -> bool:
        """All nodes have the same in-degree and the same out-degree."""
        in_degrees = {self.in_degree(i) for i in range(self.n)}
        out_degrees = {self.out_degree(i) for i in range(self.n)}
        return len(in_degrees) == 1 and len(out_degrees) == 1

    def __repr__(self) -> str:
        n_edges = len(self._edges) - self.n  # exclude self-loops
        membership = (
            ""
            if len(self.active) == self.n and self.epoch == 0
            else f" active={len(self.active)}/{self.n} epoch={self.epoch}"
        )
        return f"<Topology {self.name!r} n={self.n} edges={n_edges}{membership}>"


# ----------------------------------------------------------------------
# Region partitioning (the sharded engine's ownership map)
# ----------------------------------------------------------------------
def region_partition(
    topology: Topology, n_shards: int
) -> Tuple[Tuple[int, ...], ...]:
    """Partition the *active* workers into ``n_shards`` contiguous regions.

    The sharded engine (:mod:`repro.sim.sharded`) assigns each region
    to one shard process; the region map is the ownership contract for
    the shared-memory parameter plane, so it must be a function of the
    topology alone:

    * **Coverage**: every active worker lands in exactly one region;
      inactive (departed) workers land in none.
    * **Determinism**: regions depend only on the active *set* — the
      order members were added or removed can never change the split
      (``active`` is a frozenset; we sort it).
    * **Balance**: region sizes differ by at most one.

    Contiguous id blocks are the right default for this repo's
    topologies: ring/ring-based graphs connect adjacent ids, so block
    partitions also minimize cross-shard edges there.

    Returns:
        A tuple of ``n_shards`` sorted worker-id tuples.  Shards beyond
        the active population are empty tuples (a 5-shard split of 3
        workers is 3 singletons + 2 empties), so shard indices stay
        stable as membership churns.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    members = topology.active_nodes()
    base, extra = divmod(len(members), n_shards)
    regions: List[Tuple[int, ...]] = []
    start = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        regions.append(tuple(members[start : start + size]))
        start += size
    return tuple(regions)


def region_owner_map(
    regions: Sequence[Sequence[int]],
) -> Dict[int, int]:
    """Invert a region partition into ``{worker_id: shard_index}``."""
    owners: Dict[int, int] = {}
    for shard, region in enumerate(regions):
        for wid in region:
            if wid in owners:
                raise ValueError(
                    f"worker {wid} appears in shards {owners[wid]} and {shard}"
                )
            owners[wid] = shard
    return owners
