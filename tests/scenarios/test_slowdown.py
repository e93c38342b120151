"""Tests for slowdown models and the compute-time oracle."""

import numpy as np
import pytest

from repro.scenarios.models import (
    ComposedSlowdown,
    ComputeModel,
    DeterministicSlowdown,
    NoSlowdown,
    RandomSlowdown,
)
from repro.sim import RngStreams


class TestNoSlowdown:
    def test_always_one(self):
        model = NoSlowdown()
        assert model.factor(0, 0) == 1.0
        assert model.factor(7, 1234) == 1.0


class TestRandomSlowdown:
    def test_factors_are_one_or_slow(self):
        model = RandomSlowdown(RngStreams(0), factor=6.0, probability=0.25)
        factors = {model.factor(w, k) for w in range(4) for k in range(100)}
        assert factors <= {1.0, 6.0}

    def test_empirical_rate_matches_probability(self):
        model = RandomSlowdown(RngStreams(1), factor=6.0, probability=1 / 16)
        draws = [model.factor(0, k) for k in range(4000)]
        rate = np.mean([d == 6.0 for d in draws])
        assert abs(rate - 1 / 16) < 0.02

    def test_memoized_per_worker_iteration(self):
        model = RandomSlowdown(RngStreams(2), probability=0.5)
        assert model.factor(3, 7) == model.factor(3, 7)

    def test_reproducible_across_instances(self):
        a = RandomSlowdown(RngStreams(3), probability=0.5)
        b = RandomSlowdown(RngStreams(3), probability=0.5)
        draws_a = [a.factor(1, k) for k in range(50)]
        draws_b = [b.factor(1, k) for k in range(50)]
        assert draws_a == draws_b

    def test_workers_independent(self):
        model = RandomSlowdown(RngStreams(4), probability=0.5)
        a = [model.factor(0, k) for k in range(100)]
        b = [model.factor(1, k) for k in range(100)]
        assert a != b

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomSlowdown(RngStreams(0), factor=0.5)
        with pytest.raises(ValueError):
            RandomSlowdown(RngStreams(0), probability=1.5)

    def test_describe(self):
        model = RandomSlowdown(RngStreams(0), factor=6.0, probability=0.0625)
        assert "6" in model.describe()


class TestRandomSlowdownStateless:
    """The counter-based rewrite must reproduce the legacy memo draws."""

    def test_identical_factors_to_legacy_sequential_stream(self):
        # The original implementation consumed one draw per query from
        # streams.stream("slowdown", worker) and memoized the result.
        # Workers query their iterations in order, so the iteration-k
        # factor was the k-th draw of that stream.  Re-derive those
        # draws here and require the stateless model to match exactly.
        from repro.sim.rng import derive_seed

        for seed in (0, 1, 3, 42):
            model = RandomSlowdown(
                RngStreams(seed), factor=6.0, probability=0.25
            )
            for worker in range(3):
                legacy_rng = np.random.default_rng(
                    derive_seed(seed, f"slowdown/{worker}")
                )
                legacy = [
                    6.0 if legacy_rng.random() < 0.25 else 1.0
                    for _ in range(64)
                ]
                fresh = [model.factor(worker, k) for k in range(64)]
                assert fresh == legacy

    def test_no_unbounded_memo(self):
        model = RandomSlowdown(RngStreams(0), probability=0.5)
        for k in range(0, 10_000, 7):
            model.factor(0, k)
        # Stateless draws: nothing per-iteration may accumulate.
        assert not hasattr(model, "_memo")
        per_iteration_state = [
            v for v in vars(model).values() if isinstance(v, dict) and len(v) > 100
        ]
        assert not per_iteration_state

    def test_far_future_iteration_is_cheap_and_consistent(self):
        model = RandomSlowdown(RngStreams(9), probability=0.5)
        far = model.factor(2, 10**12)
        assert far in (1.0, model.slow_factor)
        assert model.factor(2, 10**12) == far

    def test_query_order_independent(self):
        a = RandomSlowdown(RngStreams(5), probability=0.5)
        b = RandomSlowdown(RngStreams(5), probability=0.5)
        keys = [(w, k) for w in range(3) for k in range(30)]
        forward = {key: a.factor(*key) for key in keys}
        backward = {key: b.factor(*key) for key in reversed(keys)}
        assert forward == backward

    def test_rejects_negative_iteration(self):
        model = RandomSlowdown(RngStreams(0))
        with pytest.raises(ValueError):
            model.factor(0, -1)


class TestDeterministicSlowdown:
    def test_only_chosen_worker_slow(self):
        model = DeterministicSlowdown({2: 4.0})
        assert model.factor(2, 0) == 4.0
        assert model.factor(2, 999) == 4.0
        assert model.factor(0, 0) == 1.0

    def test_multiple_stragglers(self):
        model = DeterministicSlowdown({0: 2.0, 5: 3.0})
        assert model.factor(0, 1) == 2.0
        assert model.factor(5, 1) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeterministicSlowdown({1: 0.5})


class TestComposedSlowdown:
    def test_factors_multiply(self):
        model = ComposedSlowdown(
            [DeterministicSlowdown({0: 2.0}), DeterministicSlowdown({0: 3.0})]
        )
        assert model.factor(0, 0) == 6.0
        assert model.factor(1, 0) == 1.0

    def test_requires_models(self):
        with pytest.raises(ValueError):
            ComposedSlowdown([])


class TestComputeModel:
    def test_scalar_base_time(self):
        model = ComputeModel(base_time=0.2, n_workers=4)
        assert model.n_workers == 4
        assert model.duration(0, 0) == pytest.approx(0.2)

    def test_per_worker_base_times(self):
        model = ComputeModel(base_time=[0.1, 0.4])
        assert model.duration(1, 0) == pytest.approx(0.4)

    def test_slowdown_applied(self):
        model = ComputeModel(
            base_time=0.1,
            n_workers=2,
            slowdown=DeterministicSlowdown({1: 4.0}),
        )
        assert model.duration(1, 5) == pytest.approx(0.4)
        assert model.duration(0, 5) == pytest.approx(0.1)

    def test_no_slowdown_is_constant(self):
        model = ComputeModel(base_time=0.1, n_workers=1)
        assert model.duration(0, 1) == model.duration(0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ComputeModel(base_time=0.1)  # n_workers missing
        with pytest.raises(ValueError):
            ComputeModel(base_time=-1.0, n_workers=2)

    def test_describe_mentions_slowdown(self):
        model = ComputeModel(
            base_time=0.1, n_workers=2, slowdown=DeterministicSlowdown({0: 2.0})
        )
        assert "deterministic" in model.describe()
