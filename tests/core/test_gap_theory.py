"""Tests for the iteration-gap theory (Theorems 1 & 2, Table 1)."""

import math

import numpy as np
import pytest

from repro.core import (
    ObservedGaps,
    backup_bound,
    gap_bound_matrix,
    notify_ack_bound,
    staleness_bound,
    theorem1_bound,
    token_queue_bound,
    token_queue_capacity_bound,
    update_queue_capacity_bound,
)
from repro.graphs import chain, directed_ring, ring, ring_based


class TestTheorem1:
    def test_adjacent_workers_gap_one(self):
        topo = ring(6)
        # j in Nin(i): path j->i has length 1.
        assert theorem1_bound(topo, 0, 1) == 1.0

    def test_distant_workers_path_length(self):
        topo = ring(8)
        assert theorem1_bound(topo, 0, 4) == 4.0

    def test_directed_ring_asymmetric(self):
        topo = directed_ring(5)
        # Path from 1 to 0 wraps around: length 4.
        assert theorem1_bound(topo, 0, 1) == 4.0
        assert theorem1_bound(topo, 1, 0) == 1.0


class TestNotifyAckBound:
    def test_adjacent_pair_at_most_two(self):
        topo = ring(8)
        # i in Nin(j): forward path i->j is 1 -> bound 2*1 = 2.
        assert notify_ack_bound(topo, 0, 1) <= 2.0

    def test_tighter_than_theorem1_for_long_paths(self):
        topo = chain(8)
        # Worker 7 is far from worker 0 in path terms, but NOTIFY-ACK's
        # backward dependence caps the gap at 2 * len(path 7->0)... the
        # minimum keeps whichever is smaller.
        assert notify_ack_bound(topo, 7, 0) <= theorem1_bound(topo, 7, 0)

    def test_formula(self):
        topo = chain(5)
        i, j = 4, 0
        expected = min(
            topo.path_length(j, i), 2 * topo.path_length(i, j)
        )
        assert notify_ack_bound(topo, i, j) == expected


class TestTokenQueueBound:
    def test_adjacent_bound_in_symmetric_ring_is_forward_term(self):
        topo = ring(6)
        # Symmetric graph: forward Theorem-1 term (path length 1) wins.
        assert token_queue_bound(topo, 0, 1, max_ig=3) == 1.0

    def test_backward_term_dominates_on_directed_ring(self):
        topo = directed_ring(6)
        # Edge (0 -> 1): Iter(0) - Iter(1) bounded by
        # min(path(1->0)=5, max_ig * path(0->1)=3) = max_ig.
        assert token_queue_bound(topo, 0, 1, max_ig=3) == 3.0

    def test_min_of_forward_and_backward(self):
        topo = ring(8)
        i, j = 0, 4
        bound = token_queue_bound(topo, i, j, max_ig=2)
        assert bound == min(
            topo.path_length(j, i), 2 * topo.path_length(i, j)
        )

    def test_staleness_b0(self):
        topo = ring(8)
        bound = token_queue_bound(topo, 0, 2, max_ig=5, forward_b0=3.0)
        assert bound == min(3.0 * 2, 5.0 * 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            token_queue_bound(ring(4), 0, 1, max_ig=0)


class TestOtherBounds:
    def test_staleness_bound(self):
        topo = ring(8)
        assert staleness_bound(topo, 0, 2, s=4) == 5.0 * 2
        with pytest.raises(ValueError):
            staleness_bound(topo, 0, 1, s=-1)

    def test_backup_unbounded(self):
        assert backup_bound() == math.inf

    def test_update_queue_capacity(self):
        topo = ring_based(8)  # in-degree 4 with self
        assert update_queue_capacity_bound(topo, 0, max_ig=3) == 16

    def test_token_queue_capacity(self):
        topo = ring(6)
        assert token_queue_capacity_bound(topo, 0, 1, max_ig=3) == 3 * 2


class TestGapBoundMatrix:
    def test_standard_matches_path_matrix(self):
        topo = ring(6)
        B = gap_bound_matrix(topo, "standard")
        D = topo.shortest_path_matrix()
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert B[i, j] == D[j, i]

    def test_backup_infinite(self):
        B = gap_bound_matrix(ring(4), "backup")
        assert np.all(np.isinf(B[~np.eye(4, dtype=bool)]))

    def test_token_settings_finite(self):
        B = gap_bound_matrix(ring(6), "backup+tokens", max_ig=4)
        assert np.all(np.isfinite(B))

    def test_notify_ack_never_looser_than_standard(self):
        topo = ring_based(8)
        ack = gap_bound_matrix(topo, "notify_ack")
        std = gap_bound_matrix(topo, "standard")
        assert np.all(ack <= std + 1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gap_bound_matrix(ring(4), "staleness")  # missing s
        with pytest.raises(ValueError):
            gap_bound_matrix(ring(4), "standard+tokens")  # missing max_ig
        with pytest.raises(ValueError):
            gap_bound_matrix(ring(4), "nonsense")

    def test_diagonal_zero(self):
        B = gap_bound_matrix(ring(4), "standard")
        assert np.all(np.diag(B) == 0)


def entries(n, *transitions):
    """:class:`ObservedGaps` of ``(worker, iteration)`` entries, each with
    a stamp of its own, in the order given."""
    workers, iterations = zip(*transitions)
    stamps = range(len(transitions))
    return ObservedGaps(n, stamps, workers, iterations, [True] * len(stamps))


class TestObservedGaps:
    def test_records_max_gap(self):
        gaps = entries(3, (0, 1), (0, 2), (1, 1))
        assert gaps.observed_gap(0, 1) == 2.0  # before 1 advanced
        assert gaps.observed_gap(0, 2) == 2.0
        assert gaps.observed_gap(2, 0) == 0.0

    def test_max_observed(self):
        assert entries(2, (0, 5)).max_observed() == 5.0

    def test_violations_empty_when_within_bounds(self):
        bounds = np.full((2, 2), 2.0)
        assert entries(2, (0, 1)).violations(bounds) == {}

    def test_violations_detected(self):
        bounds = np.full((2, 2), 2.0)
        violations = entries(2, (0, 5)).violations(bounds)
        assert (0, 1) in violations
        assert violations[(0, 1)] == pytest.approx(3.0)

    def test_transitions_counted(self):
        gaps = entries(2, *[(0, k) for k in range(4)])
        assert gaps.max_observed() == 3.0
        assert "transitions=4" in repr(gaps)
