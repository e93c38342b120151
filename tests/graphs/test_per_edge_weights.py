"""``Topology`` keeps one weight per edge; ``W`` is a view built on demand.

The dense matrix must come back bitwise, whether the weights were
derived (Eq. 1) or handed in dense, and the column/row sums taken from
the per-edge store must give the verdicts the dense sums gave.
"""

import numpy as np
import pytest

from repro.graphs import (
    Topology,
    TopologyError,
    bipartite_ring,
    hierarchical,
    is_doubly_stochastic,
    metropolis_hastings_weights,
    ring_based,
    uniform_weights,
)


def derived():
    """A ``without_node`` / ``with_node`` derivation of ring_based(8)."""
    base = ring_based(8)
    gone = base.without_node(3)
    wired = [v for v in base.in_neighbors(3, include_self=False)]
    return gone, gone.with_node(3, wired, wired)


def cases():
    gone, back = derived()
    return [ring_based(8), ring_based(64), bipartite_ring(6), gone, back]


@pytest.mark.parametrize("topology", cases(), ids=repr)
class TestRoundTrip:
    def test_W_is_eq1_bitwise(self, topology):
        assert np.array_equal(topology.W, uniform_weights(topology))

    def test_W_is_positive_exactly_on_edges(self, topology):
        W = topology.W
        assert {(int(i), int(j)) for i, j in zip(*np.nonzero(W))} == set(
            topology.edges
        )

    def test_with_weights_round_trips_bitwise(self, topology):
        W = topology.W
        again = topology.with_weights(W)
        assert again.W.tobytes() == W.tobytes()
        assert again.is_doubly_stochastic() == topology.is_doubly_stochastic()

    def test_is_doubly_stochastic_matches_the_dense_sums(self, topology):
        assert topology.is_doubly_stochastic() == is_doubly_stochastic(
            topology.W
        )


class TestExplicitWeights:
    def test_metropolis_weights_round_trip_bitwise(self):
        topology = hierarchical((3, 3, 2))
        W = metropolis_hastings_weights(topology)
        assert topology.W.tobytes() == W.tobytes()
        assert topology.is_doubly_stochastic()
        topology.validate(require_doubly_stochastic=True)

    def test_a_zero_on_an_edge_is_kept(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0]])
        topology = Topology(2, [(0, 1), (1, 0)], weights=W)
        assert np.array_equal(topology.W, W)

    def test_the_dense_input_is_not_retained(self):
        topology = ring_based(8)
        W = topology.W.copy()
        reweighted = topology.with_weights(W)
        W[0, 0] = 9.0
        assert reweighted.W[0, 0] == topology.W[0, 0]

    def test_W_is_read_only_and_fresh(self):
        topology = ring_based(8)
        first = topology.W
        with pytest.raises(ValueError):
            first[0, 0] = 2.0
        assert topology.W is not first


class TestSumMessages:
    """``validate()`` names the first offending column / row and its
    sum, not the whole array of sums."""

    def test_names_the_first_bad_column(self):
        W = ring_based(8).W.copy()
        W[4, 5] += 0.25  # column 5 sums to 1.25
        W[6, 7] += 0.5  # a later column, not reported
        with pytest.raises(
            TopologyError, match=r"^'ring_based\(8\)': weight column 5 sums to 1\.25, not 1$"
        ):
            ring_based(8).with_weights(W).validate()

    def test_names_the_first_bad_row(self):
        # Columns sum to 1, rows 0 and 1 do not: only Eq. 1 on an
        # irregular graph, which require_doubly_stochastic rejects.
        topology = Topology(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        topology.validate()
        with pytest.raises(TopologyError) as error:
            topology.validate(require_doubly_stochastic=True)
        row_sum = topology.W.sum(axis=1)[0]
        assert str(error.value) == (
            f"'custom': weight row 0 sums to {row_sum}, not 1"
        )
        assert not topology.is_doubly_stochastic()
