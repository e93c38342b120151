"""Property-based tests for scenario models (hypothesis).

The scenario-engine contract, checked over generated parameters and
query patterns:

* factors are always >= 1 (a slowdown never speeds a worker up),
* draws are query-order independent (memoization/counter schemes must
  not leak the access pattern into the values),
* ``ComposedSlowdown`` is associative, and
* trace record -> replay round-trips exactly.
"""

import json

import pytest

pytest.importorskip(
    "hypothesis",
    reason="property tests need hypothesis (not a runtime dependency)",
)
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.scenarios.models import (
    ComposedSlowdown,
    DeterministicSlowdown,
    NoSlowdown,
    RandomSlowdown,
)
from repro.scenarios import (
    DiurnalSlowdown,
    MarkovSlowdown,
    RecordingSlowdown,
    TieredSlowdown,
    TraceSlowdown,
)
from repro.sim import RngStreams

#: (worker, iteration) query points.
KEYS = st.tuples(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=99),
)

FACTORS = st.floats(min_value=1.0, max_value=64.0, allow_nan=False)
PROBS = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def model_strategy():
    """Any scenario model, built from generated parameters."""
    return st.one_of(
        st.just(NoSlowdown()),
        st.builds(
            RandomSlowdown,
            st.integers(min_value=0, max_value=99).map(RngStreams),
            factor=FACTORS,
            probability=PROBS,
        ),
        st.builds(
            MarkovSlowdown,
            st.integers(min_value=0, max_value=99).map(RngStreams),
            factor=FACTORS,
            p_enter=PROBS,
            p_exit=PROBS,
        ),
        st.builds(
            TieredSlowdown,
            st.lists(FACTORS, min_size=1, max_size=5).map(tuple),
        ),
        st.builds(
            DiurnalSlowdown,
            period=st.floats(min_value=1.0, max_value=200.0),
            peak=FACTORS,
        ),
        st.builds(
            DeterministicSlowdown,
            st.dictionaries(
                st.integers(min_value=0, max_value=7), FACTORS, max_size=4
            ),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(model=model_strategy(), keys=st.lists(KEYS, min_size=1, max_size=40))
def test_factors_always_at_least_one(model, keys):
    for worker, iteration in keys:
        assert model.factor(worker, iteration) >= 1.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=99),
    keys=st.lists(KEYS, min_size=2, max_size=40, unique=True),
    order=st.randoms(use_true_random=False),
)
@pytest.mark.parametrize("model_class", [RandomSlowdown, MarkovSlowdown])
def test_draws_are_query_order_independent(model_class, seed, keys, order):
    """Two identical models queried in different orders agree on every
    key — the memoized/counter draws cannot depend on access order."""
    in_order = model_class(RngStreams(seed))
    shuffled_model = model_class(RngStreams(seed))
    shuffled = list(keys)
    order.shuffle(shuffled)
    expected = {key: in_order.factor(*key) for key in keys}
    observed = {key: shuffled_model.factor(*key) for key in shuffled}
    assert observed == expected


@settings(max_examples=60, deadline=None)
@given(
    factors=st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=7),
            st.sampled_from([1.0, 2.0, 3.0, 4.0, 6.0]),
            max_size=4,
        ),
        min_size=3,
        max_size=3,
    ),
    keys=st.lists(KEYS, min_size=1, max_size=20),
)
def test_composed_slowdown_is_associative(factors, keys):
    """(a * b) * c == a * (b * c), exactly, for integer-valued factors
    (whose float products are exact)."""
    a, b, c = (DeterministicSlowdown(f) for f in factors)
    left = ComposedSlowdown([ComposedSlowdown([a, b]), c])
    right = ComposedSlowdown([a, ComposedSlowdown([b, c])])
    flat = ComposedSlowdown([a, b, c])
    for worker, iteration in keys:
        assert (
            left.factor(worker, iteration)
            == right.factor(worker, iteration)
            == flat.factor(worker, iteration)
        )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=99),
    keys=st.lists(KEYS, min_size=1, max_size=60),
)
def test_trace_record_replay_round_trips_exactly(seed, keys):
    """record -> JSON -> replay serves bit-identical factors, including
    on keys that were never recorded (the default)."""
    recorder = RecordingSlowdown(MarkovSlowdown(RngStreams(seed), factor=6.0))
    served = {key: recorder.factor(*key) for key in keys}
    payload = json.loads(json.dumps(recorder.to_trace().to_dict()))
    replay = TraceSlowdown.from_dict(payload)
    assert {key: replay.factor(*key) for key in keys} == served
    assert replay.factor(6, 10_000) == 1.0  # unrecorded -> default


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.tuples(KEYS, st.floats(min_value=1.0, max_value=100.0)),
        min_size=1,
        max_size=30,
        unique_by=lambda pair: pair[0],
    )
)
def test_trace_json_round_trip_preserves_arbitrary_floats(values):
    """JSON float serialization (repr-based) is exact for any factor."""
    table = {key: factor for key, factor in values}
    original = TraceSlowdown(table)
    restored = TraceSlowdown.from_dict(
        json.loads(json.dumps(original.to_dict()))
    )
    # The sparse format drops entries equal to the default, so compare
    # behavior (served factors), which must be bit-identical.
    for key in table:
        assert restored.factor(*key) == original.factor(*key)
