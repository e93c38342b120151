"""Tests for tracing and streaming statistics."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import StatAccumulator, Tracer


class TestTracer:
    def test_log_and_series(self):
        tracer = Tracer()
        tracer.log("loss", 0.0, 2.0)
        tracer.log("loss", 1.0, 1.5)
        times, values = tracer.series("loss")
        assert np.array_equal(times, [0.0, 1.0])
        assert np.array_equal(values, [2.0, 1.5])

    def test_empty_series(self):
        times, values = Tracer().series("missing")
        assert times.size == 0 and values.size == 0

    def test_count_and_last(self):
        tracer = Tracer()
        assert tracer.count("k") == 0
        assert tracer.last("k") is None
        tracer.log("k", 1.0, "a")
        tracer.log("k", 2.0, "b")
        assert tracer.count("k") == 2
        assert tracer.last("k") == (2.0, "b")

    def test_keys_sorted(self):
        tracer = Tracer()
        tracer.log("b", 0.0)
        tracer.log("a", 0.0)
        assert tracer.keys() == ["a", "b"]

    def test_raw_returns_copy(self):
        tracer = Tracer()
        tracer.log("k", 0.0, 1)
        raw = tracer.raw("k")
        raw.append((9.9, 99))
        assert tracer.count("k") == 1

    def test_merge_interleaves_by_time(self):
        one, two = Tracer(), Tracer()
        one.log("k", 0.0, "a")
        one.log("k", 2.0, "c")
        two.log("k", 1.0, "b")
        one.merge(two)
        assert [v for _, v in one.raw("k")] == ["a", "b", "c"]


class TestStatAccumulator:
    def test_empty(self):
        acc = StatAccumulator()
        assert acc.count == 0
        assert acc.variance == 0.0
        assert math.isnan(acc.as_dict()["min"])

    def test_mean_min_max(self):
        acc = StatAccumulator()
        for value in (1.0, 2.0, 3.0, 4.0):
            acc.add(value)
        assert acc.count == 4
        assert acc.mean == pytest.approx(2.5)
        assert acc.min == 1.0
        assert acc.max == 4.0
        assert acc.total == pytest.approx(10.0)

    def test_variance_matches_numpy(self):
        values = [3.1, -2.0, 7.7, 0.4, 5.5]
        acc = StatAccumulator()
        for value in values:
            acc.add(value)
        assert acc.variance == pytest.approx(np.var(values, ddof=1))
        assert acc.std == pytest.approx(np.std(values, ddof=1))

    def test_single_value_has_zero_variance(self):
        acc = StatAccumulator()
        acc.add(42.0)
        assert acc.variance == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(0, 9),
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            min_size=54,
            max_size=54,
        ),
        st.lists(st.booleans(), min_size=54, max_size=54),
    )
    def test_per_row_is_add_down_each_row_bitwise(self, rows, count, pool, mask):
        values = np.array(pool[: rows * count]).reshape(rows, count)
        entered = np.array(mask[: rows * count]).reshape(rows, count)
        for mask_ in (None, entered):
            got_rows = StatAccumulator.per_row(values, entered=mask_)
            for r, (row, got) in enumerate(zip(values, got_rows)):
                want = StatAccumulator()
                for t, value in enumerate(row.tolist()):
                    if mask_ is None or mask_[r, t]:
                        want.add(value)
                assert exact(got) == exact(want)


def exact(accumulator):
    state = (accumulator.mean, accumulator._m2, accumulator.min, accumulator.max)
    return (accumulator.count, *(float(v).hex() for v in state))


def bits(accumulator):
    """Every field's bytes: tells NaN payloads and ``-0.0`` apart."""
    state = (accumulator.mean, accumulator._m2, accumulator.min, accumulator.max)
    return (accumulator.count, *(struct.pack("<d", v) for v in state))


EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -3.5,
         1e308, math.inf, -math.inf, math.nan]
    ),
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(EDGE_FLOATS, max_size=8),
    st.one_of(EDGE_FLOATS, st.just("mean"), st.just("last")),
    st.integers(0, 40),
)
def test_add_repeated_is_that_many_adds_bitwise(history, value, times):
    """``add_repeated(v, t)`` leaves every field where ``t`` calls of
    ``add(v)`` leave it, after any prior history: ±0, subnormals, ±inf,
    NaN, and ``v`` equal to the running mean (the path that skips the
    arithmetic)."""
    repeated, looped = StatAccumulator(), StatAccumulator()
    for prior in history:
        repeated.add(prior)
        looped.add(prior)
    if value == "mean":
        value = repeated.mean
    elif value == "last":
        value = history[-1] if history else 2.0
        repeated.add(value)
        looped.add(value)
    repeated.add_repeated(value, times)
    for _ in range(times):
        looped.add(value)
    assert bits(repeated) == bits(looped)


def test_extend_appends_samples_to_an_enabled_series_only():
    tracer = Tracer(channels=("loss",))
    tracer.log("loss/0", 0.0, 1.0)
    tracer.extend("loss/0", zip([1.0, 2.0], [0.5, 0.25]))
    tracer.extend("jump/0", [(0.0, 0)])
    assert tracer.raw("loss/0") == [(0.0, 1.0), (1.0, 0.5), (2.0, 0.25)]
    assert tracer.keys() == ["loss/0"]
