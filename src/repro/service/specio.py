"""Service-side spec JSON: validation, canonical form, content hash.

The experiment service accepts :class:`~repro.harness.spec.
ExperimentSpec` descriptions as plain JSON objects (the same knobs
``repro train`` exposes).  This module turns a request payload into

* a validated, *canonical* dict — aliases resolved through the
  protocol/scenario/compression registries, defaults elided, nested
  params normalized — and
* a content hash (:func:`spec_hash`): SHA-256 over the canonical JSON
  with sorted keys, so the hash is invariant under JSON key ordering
  and default-field elision.  The hash is the result cache's address:
  two requests describing the same experiment always hit the same
  cache entry, and distinct experiments never share one (property
  tests pin both directions in ``tests/service/test_specio.py``).

Two fields are deliberately *excluded* from the canonical form:
``name`` (a display label; it never reaches the simulation's numbers)
and ``chaos`` (fault-injection metadata for the chaos harness — a
crash-injected run must recompute the exact same result as a clean
one, so it must share the clean run's cache address).
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.compression import CompressionSpec
from repro.compression.registry import get_compressor
from repro.graphs import by_name as graph_by_name
from repro.harness.spec import ExperimentSpec
from repro.harness.workloads import PRESETS, by_name as workload_by_name
from repro.protocols.registry import get_protocol
from repro.scenarios import ScenarioSpec
from repro.scenarios.registry import get_scenario


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
}

#: Accepted but non-hashed fields (see module docstring).
LABEL_FIELDS = ("name", "chaos")

_INT_FIELDS = ("workers", "max_iter", "seed", "ps_backup", "ps_staleness",
               "group_size")

#: Topology spellings normalized to one canonical name.
_GRAPH_ALIASES = {"ring-based": "ring_based", "double-ring": "double_ring"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


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


def canonical_spec(payload: dict) -> dict:
    """Validate ``payload`` and return its canonical (hashable) form.

    Raises :class:`SpecError` on unknown keys, bad types, or names the
    registries reject — the service turns these into HTTP 400s with
    the message intact, so clients see exactly what was wrong.
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
    _require(
        merged["workload"] in ("svm", "cnn"),
        f"unknown workload {merged['workload']!r}; choose from svm, cnn",
    )
    _require(
        merged["momentum_mode"] in ("tracking", "quasi-global"),
        "momentum_mode must be 'tracking' or 'quasi-global'",
    )

    graph = merged["graph"]
    _require(isinstance(graph, str), "graph must be a string")
    graph = _GRAPH_ALIASES.get(graph, graph)
    verdict = _graph_verdict(graph, merged["workers"])
    _require(verdict is None, verdict)
    merged["graph"] = graph

    try:
        merged["protocol"] = get_protocol(merged["protocol"]).name
    except ValueError as error:
        raise SpecError(str(error)) from error

    merged["scenario"] = _canonical_scenario(merged["scenario"])
    merged["compression"] = _canonical_compression(merged["compression"])

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
    try:
        family = get_scenario(scenario["family"]).name
    except ValueError as error:
        raise SpecError(str(error)) from error
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
    scheme = compression["scheme"]
    if scheme == "none":
        return None
    try:
        scheme = get_compressor(scheme).name
    except ValueError as error:
        raise SpecError(str(error)) from error
    params = compression.get("params") or {}
    _require(isinstance(params, dict), "compression params must be an object")
    return {"scheme": scheme, "params": dict(params)}


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
    spec = ExperimentSpec(
        name=str(payload.get("name") or f"service/{digest[:12]}"),
        workload=workload_by_name(merged["workload"], merged["preset"]),
        topology=graph_by_name(merged["graph"], merged["workers"]),
        protocol=merged["protocol"],
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
