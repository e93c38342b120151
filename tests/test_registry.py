"""The shared name table (:class:`repro.registry.Registry`) and the
seven planes that use it.

Every plane's table obeys one alias contract: a spelling resolves to
exactly one entry, re-registration replaces an entry's aliases, and
``remove`` takes the aliases with it.
"""

from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import pytest

import repro.registry as registry_module

from repro.analysis import RULES
from repro.compression import COMPRESSORS
from repro.graphs import TOPOLOGIES, TopologyError, by_name
from repro.harness.workloads import WORKLOADS
from repro.membership import REWIRE_POLICIES
from repro.protocols import PROTOCOLS, get_protocol, register_protocol
from repro.registry import Registry
from repro.scenarios import (
    SCENARIOS,
    get_scenario,
    register_scenario,
    registered_scenarios,
)

REGISTRIES = {
    "protocols": PROTOCOLS,
    "scenarios": SCENARIOS,
    "compressors": COMPRESSORS,
    "rewire-policies": REWIRE_POLICIES,
    "rules": RULES,
    "topologies": TOPOLOGIES,
    "workloads": WORKLOADS,
}


#: The tables whose entries carry aliases (rule ids and workloads do not).
ALIASED = ("compressors", "protocols", "rewire-policies", "scenarios",
           "topologies")


def has_aliases(registry: Registry) -> bool:
    info = next(iter(registry))
    return "aliases" in {field.name for field in fields(info)}


def restored(name: str):
    """The named table; the test's ``tmp-*`` entries go afterwards."""
    table = REGISTRIES[name]
    before = table.names(include_aliases=True)
    yield table
    table.remove("tmp-x")
    table.remove("tmp-z")
    assert table.names(include_aliases=True) == before


@pytest.fixture(params=sorted(REGISTRIES))
def registry(request):
    yield from restored(request.param)


@pytest.fixture(params=ALIASED)
def aliased(request):
    yield from restored(request.param)


def dummy(registry: Registry, name: str, aliases=()):
    """A copy of the table's first entry under a new name (and aliases)."""
    info = next(iter(registry))
    if has_aliases(registry):
        return replace(info, name=name, aliases=tuple(aliases))
    return replace(info, name=name)


class TestEveryRegistry:
    def test_aliased_lists_every_table_with_aliases(self, registry):
        name = next(k for k, table in REGISTRIES.items() if table is registry)
        assert has_aliases(registry) == (name in ALIASED)

    def test_names_are_sorted_and_resolve_to_themselves(self, registry):
        names = registry.names()
        assert names and names == sorted(names)
        assert all(registry.get(name).name == name for name in names)

    def test_every_alias_resolves_to_its_entry(self, registry):
        canonical = set(registry.names())
        for spelling in registry.names(include_aliases=True):
            entry = registry.get(spelling)
            assert entry.name in canonical
            assert spelling == entry.name or spelling in entry.aliases

    def test_unknown_name_lists_every_spelling(self, registry):
        with pytest.raises(ValueError) as caught:
            registry.get("no-such-entry")
        message = str(caught.value)
        assert message.startswith(
            f"unknown {registry.kind} 'no-such-entry'; "
            f"registered {registry.plural}: "
        )
        for spelling in registry.names(include_aliases=True):
            assert spelling in message

    def test_add_then_remove_round_trips(self, registry):
        registry.add(dummy(registry, "tmp-x"))
        assert "tmp-x" in registry.names()
        assert registry.get("tmp-x").name == "tmp-x"
        registry.remove("tmp-x")
        assert "tmp-x" not in registry.names()
        registry.remove("tmp-x")  # absent: a no-op

    def test_name_taken_as_an_alias_is_rejected(self, aliased):
        aliased.add(dummy(aliased, "tmp-x", aliases=("tmp-y",)))
        with pytest.raises(ValueError, match="'tmp-y' already names"):
            aliased.add(dummy(aliased, "tmp-y"))
        assert aliased.get("tmp-y").name == "tmp-x"

    def test_alias_taken_as_a_name_or_alias_is_rejected(self, aliased):
        taken = aliased.names()[0]
        aliased.add(dummy(aliased, "tmp-x", aliases=("tmp-y",)))
        for alias in (taken, "tmp-y"):
            with pytest.raises(ValueError, match="already names"):
                aliased.add(dummy(aliased, "tmp-z", aliases=(alias,)))
            assert "tmp-z" not in aliased.names()
        assert aliased.get(taken).name == taken

    def test_reregistration_replaces_the_aliases(self, aliased):
        aliased.add(dummy(aliased, "tmp-x", aliases=("tmp-y",)))
        aliased.add(dummy(aliased, "tmp-x", aliases=("tmp-w",)))
        assert aliased.get("tmp-w").name == "tmp-x"
        with pytest.raises(ValueError):
            aliased.get("tmp-y")

    def test_remove_drops_the_aliases(self, aliased):
        aliased.add(dummy(aliased, "tmp-x", aliases=("tmp-y",)))
        aliased.remove("tmp-y")  # an alias names its entry
        assert "tmp-x" not in aliased.names()
        assert "tmp-y" not in aliased.names(include_aliases=True)


class TestAliasIntegrity:
    """The public registration functions keep one spelling, one entry."""

    def test_protocol_name_that_is_an_alias_is_rejected(self):
        assert get_protocol("ps").name == "ps-bsp"
        with pytest.raises(ValueError, match="'ps' already names"):
            register_protocol("ps", lambda spec: None, elastic=True)
        assert get_protocol("ps").name == "ps-bsp"

    def test_reregistered_scenario_loses_its_old_alias(self):
        registered_scenarios()  # the builtins first, as in real use
        build = get_scenario("none").builder
        try:
            register_scenario(
                "tmp-x", build, aliases=("tmp-y",), universal=True
            )
            register_scenario("tmp-x", build, universal=True)
            with pytest.raises(ValueError, match="unknown scenario 'tmp-y'"):
                get_scenario("tmp-y")
        finally:
            SCENARIOS.remove("tmp-x")

    def test_removed_scenario_takes_its_alias_along(self):
        build = get_scenario("none").builder
        register_scenario("tmp-x", build, aliases=("tmp-y",), universal=True)
        SCENARIOS.remove("tmp-x")
        names = registered_scenarios(include_aliases=True, universal_only=True)
        assert "tmp-x" not in names and "tmp-y" not in names


class TestRegistry:
    @dataclass(frozen=True)
    class Info:
        name: str
        aliases: tuple = ()
        weight: int = 0

    def test_table_renders_aliases_and_formats_columns(self):
        table = Registry("widget", self.Info)
        table.register("b", aliases=("bee", "beta"), weight=2)
        table.register("a", weight=1)
        assert table.table(("name", "aliases", "weight"), weight=str) == [
            {"name": "a", "aliases": "", "weight": "1"},
            {"name": "b", "aliases": "bee/beta", "weight": "2"},
        ]

    def test_names_filter_keeps_only_the_matching_entries_aliases(self):
        table = Registry("widget", self.Info)
        table.add(self.Info("a", aliases=("alpha",), weight=1))
        table.add(self.Info("b", aliases=("beta",), weight=2))
        heavy = table.names(include_aliases=True, where=lambda i: i.weight > 1)
        assert heavy == ["b", "beta"]

    def test_builtins_load_on_first_lookup_once_every_import_succeeds(
        self, monkeypatch
    ):
        table = Registry("widget", self.Info, builtins=("first", "second"))
        imported, failures = [], ["second"]

        def import_module(module):
            imported.append(module)
            if module in failures:
                failures.remove(module)
                raise ImportError(module)
            table.add(self.Info(module))

        monkeypatch.setattr(
            registry_module,
            "importlib",
            SimpleNamespace(import_module=import_module),
        )
        table.add(self.Info("own"))  # registering never imports
        assert imported == []
        with pytest.raises(ImportError):
            table.names()
        # The failed import left the table unloaded: the next lookup
        # retries instead of serving a half-filled table, and the one
        # after that imports nothing.
        assert table.names() == ["first", "own", "second"]
        assert table.get("second").name == "second"
        assert imported == ["first", "second", "first", "second"]

    def test_custom_error_type_and_plural(self):
        table = Registry(
            "topology", self.Info, plural="topologies", error=TopologyError
        )
        with pytest.raises(TopologyError, match="registered topologies: $"):
            table.get("x")


def test_topology_lookup_errors_stay_topology_errors():
    with pytest.raises(TopologyError, match="unknown topology 'nonsense'"):
        by_name("nonsense", 8)
    with pytest.raises(TopologyError, match="power-of-two"):
        by_name("hypercube", 12)
