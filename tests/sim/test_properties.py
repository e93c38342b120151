"""Property-based tests for the simulation substrate (hypothesis)."""

import heapq

from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Environment, RngStreams, StatAccumulator

import numpy as np
import pytest


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=30))
def test_clock_never_goes_backwards(delays):
    env = Environment()
    observed = []

    def proc(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    key=st.text(min_size=1, max_size=20),
)
def test_rng_streams_deterministic(seed, key):
    a = RngStreams(seed).fresh(key).integers(0, 1000, size=8)
    b = RngStreams(seed).fresh(key).integers(0, 1000, size=8)
    assert np.array_equal(a, b)


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
def test_stat_accumulator_matches_numpy(values):
    acc = StatAccumulator()
    for value in values:
        acc.add(value)
    assert acc.count == len(values)
    assert acc.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
    assert acc.min == min(values)
    assert acc.max == max(values)
