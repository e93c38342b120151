"""The rewire-policy registry and the built-in policies."""

import numpy as np
import pytest

from repro.graphs import chain, ring, ring_based
from repro.graphs.weights import is_column_stochastic, is_doubly_stochastic
from repro.membership import (
    REWIRE_POLICIES,
    RewirePolicy,
    get_rewire_policy,
    register_rewire_policy,
    registered_rewire_policies,
    rewire_policy_table,
)


class TestRegistry:
    def test_builtins_registered(self):
        names = registered_rewire_policies()
        assert "uniform" in names
        assert "metropolis" in names

    def test_aliases_resolve(self):
        assert type(get_rewire_policy("mh")) is type(
            get_rewire_policy("metropolis")
        )
        assert type(get_rewire_policy("eq1")) is type(
            get_rewire_policy("uniform")
        )

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="uniform"):
            get_rewire_policy("nope")

    def test_table_rows(self):
        rows = rewire_policy_table()
        names = [row["name"] for row in rows]
        assert "uniform" in names and "metropolis" in names
        for row in rows:
            assert row["summary"]


class TestBuiltinPolicies:
    def test_uniform_column_stochastic_after_leave(self):
        topo = chain(5).without_node(2)
        repaired = get_rewire_policy("uniform").reweight(topo)
        repaired.validate()
        assert is_column_stochastic(repaired.W)

    def test_metropolis_doubly_stochastic_after_leave(self):
        topo = ring_based(6).without_node(3)
        repaired = get_rewire_policy("metropolis").reweight(topo)
        repaired.validate(require_doubly_stochastic=True)
        assert is_doubly_stochastic(repaired.W)

    def test_inactive_nodes_keep_identity_weight(self):
        topo = ring(5).without_node(1)
        for policy in ("uniform", "metropolis"):
            repaired = get_rewire_policy(policy).reweight(topo)
            assert repaired.W[1, 1] == 1.0
            assert np.all(repaired.W[1, [0, 2, 3, 4]] == 0.0)
            assert np.all(repaired.W[[0, 2, 3, 4], 1] == 0.0)


class TestExtensionPoint:
    """The docs/ARCHITECTURE.md add-a-rewire-policy walkthrough."""

    def test_custom_policy_via_registry(self):
        class LazyUniform(RewirePolicy):
            """Blend Eq. 1 with the identity (a lazy gossip walk)."""

            name = "lazy-uniform"

            def reweight(self, topology):
                from repro.graphs.weights import lazy_weights, uniform_weights

                return topology.with_weights(
                    lazy_weights(uniform_weights(topology), laziness=0.5)
                )

        register_rewire_policy(
            "lazy-uniform",
            lambda params: LazyUniform(),
            summary="half-lazy Eq. 1 walk",
        )
        try:
            policy = get_rewire_policy("lazy-uniform")
            repaired = policy.reweight(ring(6).without_node(0))
            repaired.validate()
            assert "lazy-uniform" in registered_rewire_policies()
            # The blend keeps half the mass on the self-loop.
            assert repaired.W[2, 2] >= 0.5
        finally:
            # Keep the global registry pristine for other tests.
            REWIRE_POLICIES.remove("lazy-uniform")
