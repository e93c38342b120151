"""Property tests for the service's canonical spec form + cache key.

The spec hash is the result cache's address, so two invariants carry
the whole correctness story:

* requests describing the *same* experiment hash identically — under
  JSON key reordering, default-field elision, alias spellings, and
  label fields (``name``/``chaos``), and
* requests describing *different* experiments never collide on the
  canonical form.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.specio import (
    DEFAULTS,
    SpecError,
    canonical_json,
    canonical_spec,
    spec_from_dict,
    spec_hash,
)

# ----------------------------------------------------------------------
# Strategies: valid spec payloads
# ----------------------------------------------------------------------
spec_payloads = st.fixed_dictionaries(
    {},
    optional={
        "workload": st.sampled_from(["svm", "cnn"]),
        "preset": st.sampled_from(["smoke", "bench"]),
        # Every sampled graph accepts every sampled worker count
        # (ring_based needs even n >= 4; double_ring needs n % 4 == 0).
        "graph": st.sampled_from(
            ["ring_based", "double_ring", "ring", "complete"]
        ),
        "workers": st.sampled_from([8, 12]),
        "protocol": st.sampled_from(
            ["hop", "allreduce", "adpsgd", "ps", "ps-async"]
        ),
        "max_iter": st.integers(min_value=1, max_value=50),
        "seed": st.integers(min_value=0, max_value=10_000),
        "group_size": st.integers(min_value=2, max_value=6),
        "static_groups": st.booleans(),
        "momentum_mode": st.sampled_from(["tracking", "quasi-global"]),
        "name": st.text(min_size=1, max_size=12),
    },
)


def shuffled(payload: dict, rnd) -> dict:
    items = list(payload.items())
    rnd.shuffle(items)
    return dict(items)


# ----------------------------------------------------------------------
# Invariance: same experiment -> same hash
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(payload=spec_payloads, data=st.data())
def test_hash_invariant_under_key_reordering(payload, data):
    reordered = dict(
        data.draw(st.permutations(list(payload.items())), label="order")
    )
    assert spec_hash(reordered) == spec_hash(payload)


@settings(max_examples=50, deadline=None)
@given(payload=spec_payloads, data=st.data())
def test_hash_invariant_under_default_field_elision(payload, data):
    # Spelling out any subset of defaulted fields must not move the
    # hash: {"protocol": "hop"} and {} name the same experiment.
    non_label = {k: v for k, v in DEFAULTS.items()}
    explicit = dict(payload)
    for field in data.draw(
        st.sets(st.sampled_from(sorted(non_label))), label="spelled"
    ):
        explicit.setdefault(field, non_label[field])
    assert spec_hash(explicit) == spec_hash(payload)


@settings(max_examples=50, deadline=None)
@given(payload=spec_payloads, label=st.text(max_size=16))
def test_hash_ignores_name_and_chaos_labels(payload, label):
    relabeled = {**payload, "name": label, "chaos": {"fail_attempts": 2}}
    assert spec_hash(relabeled) == spec_hash(payload)


@settings(max_examples=50, deadline=None)
@given(payload=spec_payloads)
def test_canonical_form_is_a_fixpoint(payload):
    canonical = canonical_spec(payload)
    assert canonical_spec(canonical) == canonical
    # ...and round-trips through its own JSON serialization.
    assert canonical_spec(json.loads(canonical_json(canonical))) == canonical


# ----------------------------------------------------------------------
# Injectivity: different experiments never collide
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(first=spec_payloads, second=spec_payloads)
def test_distinct_canonical_specs_never_collide(first, second):
    c1, c2 = canonical_spec(first), canonical_spec(second)
    if c1 != c2:
        assert spec_hash(first) != spec_hash(second)
    else:
        assert spec_hash(first) == spec_hash(second)


def test_each_field_change_moves_the_hash():
    base = {"workers": 4, "max_iter": 5, "seed": 1}
    baseline = spec_hash(base)
    variants = [
        {**base, "workers": 6},
        {**base, "max_iter": 6},
        {**base, "seed": 2},
        {**base, "protocol": "allreduce"},
        {**base, "workload": "cnn"},
        {**base, "graph": "complete"},
        {**base, "scenario": {"family": "straggler"}},
        {**base, "compression": {"scheme": "topk",
                                 "params": {"ratio": 0.5}}},
    ]
    hashes = [spec_hash(v) for v in variants]
    assert baseline not in hashes
    assert len(set(hashes)) == len(hashes)


# ----------------------------------------------------------------------
# Aliases and normalization
# ----------------------------------------------------------------------
def test_protocol_aliases_share_a_hash():
    assert spec_hash({"protocol": "ps"}) == spec_hash({"protocol": "ps-bsp"})
    assert spec_hash({"protocol": "prague"}) == spec_hash(
        {"protocol": "partial-allreduce"}
    )


def test_graph_alias_spellings_share_a_hash():
    assert spec_hash({"graph": "ring-based"}) == spec_hash(
        {"graph": "ring_based"}
    )


def test_none_scenario_and_compression_elide_to_defaults():
    assert spec_hash({"scenario": {"family": "none"}}) == spec_hash({})
    assert spec_hash({"compression": {"scheme": "none"}}) == spec_hash({})


# ----------------------------------------------------------------------
# The cache address itself
# ----------------------------------------------------------------------
#: ``(label, payload, digest)``.  The digest is where ``repro serve
#: --state-dir`` keeps the cell's result, so a change to the canonical
#: form that moves any of them orphans every stored entry.  Do not
#: re-record these to make a refactor pass.
_DEFAULT = "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"
PINNED_DIGESTS = [
    ("empty", {}, _DEFAULT),
    (
        "defaults-spelled-out",
        {**DEFAULTS},
        _DEFAULT,
    ),
    (
        "clean-and-no-compression",
        {"scenario": {"family": "clean"}, "compression": {"scheme": "none"}},
        _DEFAULT,
    ),
    (
        "small",
        {"workers": 4, "max_iter": 5, "seed": 1},
        "d00ebb6b1a9b682759a0d2f34bad9ab0c69a7f2f2ee2d56b71c762e29d69e43f",
    ),
    (
        "ps",
        {"protocol": "ps"},
        "062cac4b2db8369cbf66962f7079004d47621e7861e54b516d631f121f8ae245",
    ),
    (
        "prague",
        {"protocol": "prague", "group_size": 3, "static_groups": True},
        "f8c94640fa18610875ef594bd6ee23bf04bdb5626ced4231aa4c47f63233a45f",
    ),
    (
        "top-k",
        {
            "protocol": "allreduce",
            "compression": {"scheme": "top-k", "params": {"ratio": 0.5}},
        },
        "d6dae7cd704f45c091d77ff30bc3da27733d6a1f08b1dea31aa1d80f761c7be3",
    ),
    (
        "random-k",
        {
            "compression": {"scheme": "random-k", "params": {"ratio": 0.25}},
            "seed": 3,
        },
        "65b9a889d5ee4784fa239eba178ba2bb321db08a9de4eedd37489167de9dd62b",
    ),
    (
        "ring-based",
        {"graph": "ring-based", "workers": 16},
        "49caf57b22050e11d03123a68dedeba0b7cd39482e366a5059291a2952b9c50e",
    ),
    (
        "double-ring",
        {"graph": "double-ring", "workers": 8, "protocol": "notify_ack"},
        "af8df0932c2105eb6eb7cb524bd7d57642d9363832e4838a581a2d0db160fce6",
    ),
    (
        "poisson-churn",
        {
            "scenario": {
                "family": "poisson-churn",
                "params": {"rate": 0.3, "horizon": 10},
            }
        },
        "b38d514d8b07eddc114c8cb97aeea9b649744d5addd5268fb711587c70fe2b78",
    ),
    (
        "name-and-chaos-labels",
        {"name": "labelled", "chaos": {"fail_attempts": 2}, "seed": 7},
        "beced1fe696351bb996169a4f1987ca19b5f52f37c7ef3071f9c044cf3580bfc",
    ),
    (
        "cnn-quasi-global",
        {
            "workload": "cnn",
            "preset": "bench",
            "protocol": "momentum-tracking",
            "momentum_mode": "quasi-global",
            "graph": "bipartite_ring",
            "workers": 6,
        },
        "888cbd8d932081378f3f8b023b4da2669b961c178230144c56e7b07db9b1efcc",
    ),
    (
        "ps-ssp-straggler",
        {
            "protocol": "ps-ssp",
            "ps_staleness": 2,
            "ps_backup": 1,
            "scenario": {"family": "straggler", "params": {"worker": 1}},
        },
        "6d5d7020e309aedbdbc5f3a768be9b1cbb528f14c361871dc32a5fdde92e9b32",
    ),
]


@pytest.mark.parametrize(
    "payload,digest",
    [case[1:] for case in PINNED_DIGESTS],
    ids=[case[0] for case in PINNED_DIGESTS],
)
def test_spec_hash_is_pinned(payload, digest):
    assert spec_hash(payload) == digest


# ----------------------------------------------------------------------
# Validation errors
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({"bogus": 1}, "unknown spec field"),
        ({"workers": "four"}, "workers must be an integer"),
        ({"workers": True}, "workers must be an integer"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"preset": "huge"}, "unknown preset"),
        ({"workload": "resnet"}, "unknown workload"),
        ({"momentum_mode": "both"}, "momentum_mode"),
        ({"static_groups": "yes"}, "static_groups must be a boolean"),
        ({"scenario": {"params": {}}}, "scenario must be"),
        ({"scenario": {"family": "none", "extra": 1}},
         "unknown scenario field"),
        ({"compression": {"params": {}}}, "compression must be"),
        ([], "must be a JSON object"),
    ],
)
def test_invalid_payloads_raise_spec_error(payload, fragment):
    with pytest.raises(SpecError, match=fragment):
        canonical_spec(payload)


def test_unknown_registry_names_surface_registry_message():
    with pytest.raises(SpecError):
        canonical_spec({"protocol": "nope"})
    with pytest.raises(SpecError):
        canonical_spec({"scenario": {"family": "nope"}})
    with pytest.raises(SpecError):
        canonical_spec({"compression": {"scheme": "nope"}})
    with pytest.raises(SpecError):
        canonical_spec({"graph": "nope"})


# ----------------------------------------------------------------------
# spec_from_dict
# ----------------------------------------------------------------------
def test_spec_from_dict_builds_runnable_spec():
    spec, canonical, digest = spec_from_dict(
        {"workers": 4, "max_iter": 5, "seed": 1, "name": "mine"}
    )
    assert spec.name == "mine"
    assert spec.topology.n == 4
    assert spec.max_iter == 5
    assert digest == spec_hash({"workers": 4, "max_iter": 5, "seed": 1})
    assert canonical == {"max_iter": 5, "seed": 1, "workers": 4}


def test_spec_from_dict_default_name_embeds_hash():
    spec, _, digest = spec_from_dict({"workers": 4})
    assert spec.name == f"service/{digest[:12]}"


# ----------------------------------------------------------------------
# Addressing a spec does not depend on the cluster size
# ----------------------------------------------------------------------
class TestGraphValidationIsMemoised:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Count the topologies ``canonical_spec`` builds."""
        from repro.service import specio

        calls = []

        def counting(name, workers):
            calls.append((name, workers))
            return real(name, workers)

        real = specio.graph_by_name
        monkeypatch.setattr(specio, "graph_by_name", counting)
        specio._graph_verdict.cache_clear()
        yield calls
        specio._graph_verdict.cache_clear()

    def test_hundred_hashes_build_the_topology_once(self, builds):
        digests = {
            spec_hash({"graph": "ring_based", "workers": 64, "seed": seed % 7})
            for seed in range(100)
        }
        assert len(digests) == 7
        assert builds == [("ring_based", 64)]
        spec_hash({"graph": "ring-based", "workers": 64})  # alias, same pair
        spec_hash({"graph": "ring_based", "workers": 32})  # a new pair
        assert builds == [("ring_based", 64), ("ring_based", 32)]

    def test_invalid_pair_raises_the_same_message_every_time(self, builds):
        from repro.graphs import TopologyError, by_name

        with pytest.raises(TopologyError) as direct:
            by_name("double_ring", 6)
        messages = []
        for _ in range(3):
            with pytest.raises(SpecError) as caught:
                spec_hash({"graph": "double_ring", "workers": 6})
            messages.append(str(caught.value))
        assert messages == [str(direct.value)] * 3
        assert builds == [("double_ring", 6)]  # the verdict is memoised too
