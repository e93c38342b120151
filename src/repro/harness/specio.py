"""The spec codec: a flat run description -> an ExperimentSpec.

This is the one place a plain-JSON description of a run becomes an
:class:`~repro.harness.spec.ExperimentSpec`: ``repro train`` and
``repro profile`` turn their flags into such a dict, and the
experiment service (``repro serve``) accepts it as a request payload.
This module turns one into

* a validated, *canonical* dict — names and aliases resolved through
  the workload/topology/protocol/scenario/compression registries,
  defaults elided, nested params normalized — and
* a content hash (:func:`spec_hash`): SHA-256 over the canonical JSON
  with sorted keys, so the hash is invariant under JSON key ordering
  and default-field elision.  The hash is the result cache's address:
  two requests describing the same experiment always hit the same
  cache entry, and distinct experiments never share one (property
  tests pin both directions in ``tests/harness/test_specio.py``).

``config`` is a dict of :class:`~repro.core.config.HopConfig` fields
(``skip``: ``null`` or a dict of ``SkipConfig`` fields), hop only; a
standard config canonicalises to absent, so no older address moves.

Two fields are deliberately *excluded* from the canonical form:
``name`` (a display label; it never reaches the simulation's numbers)
and ``chaos`` (fault-injection metadata for the chaos harness — a
crash-injected run must recompute the exact same result as a clean
one, so it must share the clean run's cache address).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.baselines.adpsgd import MOMENTUM_MODES
from repro.compression import (
    COMPRESSORS,
    CompressionSpec,
    check_compression_params,
)
from repro.core.config import STANDARD, HopConfig, SkipConfig
from repro.graphs import TOPOLOGIES, by_name as graph_by_name
from repro.harness.spec import ExperimentSpec
from repro.harness.workloads import PRESETS, WORKLOADS
from repro.harness.workloads import by_name as workload_by_name
from repro.protocols.registry import PROTOCOLS
from repro.registry import Registry
from repro.scenarios import SCENARIOS, ScenarioSpec
from repro.sim.rng import RngStreams


class SpecError(ValueError):
    """A request payload that cannot become an ExperimentSpec."""


#: Knob -> default.  A field equal to its default is elided from the
#: canonical form, so ``{"protocol": "hop"}`` and ``{}`` hash alike.
DEFAULTS: Dict[str, object] = {
    "workload": "svm",
    "preset": "smoke",
    "graph": "ring_based",
    "workers": 8,
    "protocol": "hop",
    "max_iter": 30,
    "seed": 0,
    "scenario": None,
    "ps_backup": 0,
    "ps_staleness": 0,
    "group_size": 4,
    "static_groups": False,
    "momentum_mode": "tracking",
    "compression": None,
    "config": None,
}

#: Accepted but non-hashed fields (see module docstring).
LABEL_FIELDS = ("name", "chaos")

_INT_FIELDS = ("workers", "max_iter", "seed", "ps_backup", "ps_staleness",
               "group_size")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _canonical_name(registry: Registry, name: str) -> str:
    """The canonical spelling of ``name`` (or an alias) in ``registry``."""
    if not isinstance(name, str):
        raise SpecError(f"{registry.kind} name must be a string, got {name!r}")
    try:
        return registry.get(name).name
    except ValueError as error:
        raise SpecError(str(error)) from error


@lru_cache(maxsize=1024)
def _graph_verdict(graph: str, workers: int) -> Optional[str]:
    """``None`` if ``(graph, workers)`` builds a valid topology, else
    the error text.

    Memoised: building and validating a whole ``Topology`` costs more
    than the rest of :func:`canonical_spec` and grows with the cluster,
    and the answer depends on nothing but the pair — so it is built
    once per distinct pair, not once per hash.
    """
    try:
        graph_by_name(graph, workers)
    except Exception as error:
        return str(error)
    return None


@lru_cache(maxsize=1024)
def _scenario_verdict(scenario: str, workers: int) -> Optional[str]:
    """:func:`_graph_verdict` for a canonical scenario (as JSON): the
    build's error, say a knob it never reads.  It draws from a fixed
    stream, so the verdict cannot depend on a seed."""
    try:
        ScenarioSpec.from_dict(json.loads(scenario)).build(workers, RngStreams(0))
    except Exception as error:
        return str(error)
    return None


def canonical_spec(payload: dict) -> dict:
    """Validate ``payload`` and return its canonical (hashable) form.

    Raises :class:`SpecError` on unknown keys, bad types, or names the
    registries reject — the service turns these into HTTP 400s and
    ``repro train`` into one ``error:`` line, with the message intact,
    so users see exactly what was wrong.
    """
    _require(isinstance(payload, dict), "spec must be a JSON object")
    unknown = sorted(set(payload) - set(DEFAULTS) - set(LABEL_FIELDS))
    _require(
        not unknown,
        f"unknown spec field(s) {unknown}; allowed: "
        f"{sorted(DEFAULTS) + sorted(LABEL_FIELDS)}",
    )
    merged = {**DEFAULTS, **{k: v for k, v in payload.items()
                             if k not in LABEL_FIELDS}}

    for field in _INT_FIELDS:
        value = merged[field]
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            f"{field} must be an integer, got {value!r}",
        )
    _require(merged["workers"] >= 1, "workers must be >= 1")
    _require(merged["max_iter"] >= 1, "max_iter must be >= 1")
    _require(
        isinstance(merged["static_groups"], bool),
        "static_groups must be a boolean",
    )
    _require(
        merged["preset"] in PRESETS,
        f"unknown preset {merged['preset']!r}; choose from {PRESETS}",
    )
    merged["workload"] = _canonical_name(WORKLOADS, merged["workload"])
    if merged["momentum_mode"] not in MOMENTUM_MODES:
        raise SpecError(f"momentum_mode must be one of {MOMENTUM_MODES}")

    merged["graph"] = _canonical_name(TOPOLOGIES, merged["graph"])
    verdict = _graph_verdict(merged["graph"], merged["workers"])
    _require(verdict is None, verdict)

    merged["protocol"] = _canonical_name(PROTOCOLS, merged["protocol"])

    merged["scenario"] = _canonical_scenario(merged["scenario"])
    if merged["scenario"] is not None:
        verdict = _scenario_verdict(
            canonical_json(merged["scenario"]), merged["workers"]
        )
        _require(verdict is None, verdict)
    merged["compression"] = _canonical_compression(merged["compression"])
    merged["config"] = _canonical_config(merged["config"])
    if merged["config"] is not None and merged["protocol"] != "hop":
        raise SpecError(
            f"config is hop-only; protocol {merged['protocol']!r} takes none"
        )

    return {
        key: value
        for key, value in sorted(merged.items())
        if value != DEFAULTS[key]
    }


def _canonical_scenario(scenario) -> Optional[dict]:
    if scenario is None:
        return None
    _require(
        isinstance(scenario, dict) and "family" in scenario,
        'scenario must be {"family": ..., "params": {...}}',
    )
    unknown = sorted(set(scenario) - {"family", "params"})
    _require(not unknown, f"unknown scenario field(s) {unknown}")
    family = _canonical_name(SCENARIOS, scenario["family"])
    params = scenario.get("params") or {}
    _require(isinstance(params, dict), "scenario params must be an object")
    normalized = ScenarioSpec(family, dict(params)).to_dict()
    if normalized["family"] == "none" and not normalized["params"]:
        return None
    return normalized


def _canonical_compression(compression) -> Optional[dict]:
    if compression is None:
        return None
    _require(
        isinstance(compression, dict) and "scheme" in compression,
        'compression must be {"scheme": ..., "params": {...}}',
    )
    unknown = sorted(set(compression) - {"scheme", "params"})
    _require(not unknown, f"unknown compression field(s) {unknown}")
    params = compression.get("params") or {}
    _require(isinstance(params, dict), "compression params must be an object")
    scheme = compression["scheme"]
    if scheme == "none":
        _require(
            not params, f"compressor 'none' does not take {sorted(params)}"
        )
        return None
    scheme = _canonical_name(COMPRESSORS, scheme)
    try:
        check_compression_params(scheme, params)
    except ValueError as error:
        raise SpecError(str(error)) from error
    return {"scheme": scheme, "params": dict(params)}


def _hop_config(config) -> HopConfig:
    """The :class:`HopConfig` a ``config`` dict describes.

    A value must have its default's type (``4.0`` is no ``max_ig``);
    the rest (unknown fields, modes, ranges) is the dataclasses' own
    validation.
    """
    _require(isinstance(config, dict), "config must be an object")
    skip = config.get("skip")
    _require(
        skip is None or isinstance(skip, dict),
        "config.skip must be null or an object",
    )
    for where, values, default in (
        ("config", config, STANDARD),
        ("config.skip", skip or {}, SkipConfig()),
    ):
        for key, value in values.items():
            expected = type(getattr(default, key, value))
            _require(
                key == "skip" or type(value) is expected,
                f"{where}.{key} must be {expected.__name__}, got {value!r}",
            )
    try:
        return HopConfig(
            **{**config, "skip": None if skip is None else SkipConfig(**skip)}
        )
    except (TypeError, ValueError) as error:
        raise SpecError(f"config: {error}") from error


def _non_default(instance) -> dict:
    return {
        f.name: getattr(instance, f.name)
        for f in fields(instance)
        if getattr(instance, f.name) != f.default
    }


def _canonical_config(config) -> Optional[dict]:
    if config is None:
        return None
    built = _hop_config(config)
    canonical = _non_default(built)
    if built.skip is not None:
        canonical["skip"] = _non_default(built.skip)
    return canonical or None


def canonical_json(canonical: dict) -> str:
    """The canonical form as minimal sorted-key JSON (the hash input)."""
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"))


def spec_hash(payload: dict) -> str:
    """Content address of a spec payload (canonicalizes first)."""
    return hashlib.sha256(
        canonical_json(canonical_spec(payload)).encode()
    ).hexdigest()


def spec_from_dict(payload: dict) -> Tuple[ExperimentSpec, dict, str]:
    """``(built ExperimentSpec, canonical dict, spec hash)``.

    The ExperimentSpec is built *from the canonical form*, so a run is
    fully determined by its hash; the request's ``name`` label rides
    along for reports only.
    """
    canonical = canonical_spec(payload)
    digest = hashlib.sha256(canonical_json(canonical).encode()).hexdigest()
    merged = {**DEFAULTS, **canonical}
    scenario = merged["scenario"]
    compression = merged["compression"]
    config = merged["config"]
    spec = ExperimentSpec(
        name=str(payload.get("name") or f"service/{digest[:12]}"),
        workload=workload_by_name(merged["workload"], merged["preset"]),
        topology=graph_by_name(merged["graph"], merged["workers"]),
        protocol=merged["protocol"],
        config=_hop_config(config) if config else STANDARD,
        scenario=ScenarioSpec.from_dict(scenario) if scenario else None,
        max_iter=merged["max_iter"],
        seed=merged["seed"],
        ps_backup=merged["ps_backup"],
        ps_staleness=merged["ps_staleness"],
        group_size=merged["group_size"],
        static_groups=merged["static_groups"],
        momentum_mode=merged["momentum_mode"],
        compression=(
            CompressionSpec(compression["scheme"], dict(compression["params"]))
            if compression
            else None
        ),
    )
    return spec, canonical, digest
