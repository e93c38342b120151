"""The linear-time topology checks against their quadratic definitions.

``Topology._validate_weight_support`` is two array expressions and
``is_strongly_connected`` two traversals; the double loop and the
path-matrix definition they replaced live on here as references.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Topology, TopologyError, ring_based


def reference_validate_weight_support(topology, W):
    """The removed double loop, verbatim."""
    for i in range(topology.n):
        for j in range(topology.n):
            on_edge = (i, j) in topology.edges
            if W[i, j] < 0:
                raise TopologyError(f"negative weight at ({i}, {j})")
            if W[i, j] > 0 and not on_edge:
                raise TopologyError(
                    f"weight {W[i, j]} on non-edge ({i}, {j})"
                )


def outcome(check, *args):
    try:
        check(*args)
    except TopologyError as error:
        return str(error)
    return None


def path_matrix_connected(topology):
    """Strong connectivity as the all-pairs definition states it."""
    members = sorted(topology.active)
    D = topology.shortest_path_matrix()
    return bool(np.all(np.isfinite(D[np.ix_(members, members)])))


@st.composite
def digraphs(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    return n, edges


@st.composite
def weight_faults(draw):
    """A topology plus a weight matrix with 0-2 planted faults."""
    n, edges = draw(digraphs())
    topology = Topology(n, edges)
    W = topology.W.copy()
    non_edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if (i, j) not in topology.edges
    ]
    cells = [(i, j) for i in range(n) for j in range(n)]
    fault = draw(st.sampled_from(["none", "negative", "off", "both"]))
    if fault in ("negative", "both"):
        W[draw(st.sampled_from(cells))] = -draw(
            st.floats(min_value=1e-6, max_value=2.0)
        )
    if fault in ("off", "both") and non_edges:
        cell = draw(st.sampled_from(non_edges))
        if W[cell] == 0:  # keep a negative planted on the same cell
            W[cell] = draw(st.floats(min_value=1e-6, max_value=2.0))
    return topology, W


class TestWeightSupport:
    @given(case=weight_faults())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_double_loop(self, case):
        """Same verdict, same exception text, same first pair."""
        topology, W = case
        assert outcome(topology._validate_weight_support, W) == outcome(
            reference_validate_weight_support, topology, W
        )

    def test_first_offender_is_row_major_across_both_checks(self):
        topology = Topology(3, [(0, 1), (1, 2), (2, 0)])
        W = topology.W.copy()
        W[0, 2] = 0.25  # off-support, earlier in row-major order
        W[1, 2] = -1.0  # negative, later
        with pytest.raises(TopologyError, match=r"weight 0.25 on non-edge \(0, 2\)"):
            topology.with_weights(W)
        W[0, 1] = -0.5  # a negative one earlier still
        with pytest.raises(TopologyError, match=r"negative weight at \(0, 1\)"):
            topology.with_weights(W)

    def test_constructor_still_runs_both_checks(self):
        with pytest.raises(TopologyError, match="negative weight"):
            Topology(2, [(0, 1), (1, 0)], weights=np.array([[0.5, -0.5], [0.5, 0.5]]))
        with pytest.raises(TopologyError, match="on non-edge"):
            Topology(2, [(0, 1)], weights=np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_caller_matrix_is_not_modified(self):
        topology = ring_based(8)
        W = topology.W.copy()
        topology.with_weights(W)
        assert np.array_equal(W, topology.W)


class TestStrongConnectivity:
    @given(graph=digraphs(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_path_matrix_with_inactive_nodes(self, graph, data):
        n, edges = graph
        active = data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)
        )
        edges = [(a, b) for a, b in edges if a in active and b in active]
        topology = Topology(n, edges, active=active)
        assert topology.is_strongly_connected() == path_matrix_connected(
            topology
        )

    @given(half=st.integers(min_value=2, max_value=6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_path_matrix_across_membership_epochs(self, half, data):
        base = ring_based(2 * half)
        topology = base
        away = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            if away and data.draw(st.booleans()):
                node = away.pop(data.draw(st.integers(0, len(away) - 1)))
                wired = [
                    v
                    for v in base.in_neighbors(node, include_self=False)
                    if v in topology.active
                ] or [min(topology.active)]
                topology = topology.with_node(node, wired, wired)
            elif len(topology.active) > 2:
                node = data.draw(st.sampled_from(sorted(topology.active)))
                topology = topology.without_node(node)
                away.append(node)
            assert topology.is_strongly_connected() == path_matrix_connected(
                topology
            )
            assert topology.is_strongly_connected()

    def test_inactive_node_case_still_rejected(self):
        """An edgeless node breaks connectivity only while a member."""
        edges = [(0, 1), (1, 0)]
        member = Topology(3, edges)
        assert not member.is_strongly_connected()
        with pytest.raises(TopologyError, match="not strongly connected"):
            member.validate()
        departed = Topology(3, edges, active={0, 1})
        assert departed.is_strongly_connected()
        departed.validate()


class TestPathMatrixOnDemand:
    def test_validate_does_not_build_it(self):
        topology = ring_based(512)
        topology.validate()
        assert topology.is_strongly_connected()
        assert topology._path_matrix is None

    def test_diameter_and_path_length_fill_and_reuse_it(self):
        topology = ring_based(64)
        topology.validate()
        diameter = topology.diameter()
        matrix = topology._path_matrix
        assert matrix is not None and diameter == matrix.max()
        assert topology.path_length(0, 1) == 1.0
        assert topology.shortest_path_matrix() is matrix
        assert topology._path_matrix is matrix

    def test_path_length_alone_fills_it(self):
        topology = ring_based(32)
        assert topology._path_matrix is None
        assert topology.path_length(0, 0) == 0.0
        assert topology._path_matrix is not None

    def test_derived_epochs_skip_it_too(self):
        topology = ring_based(64).without_node(5)
        topology.validate()
        rejoined = topology.with_node(5, (4, 6), (4, 6))
        rejoined.validate()
        assert topology._path_matrix is None
        assert rejoined._path_matrix is None
