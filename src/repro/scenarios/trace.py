"""Trace record / replay for heterogeneity factors.

Any :class:`~repro.scenarios.models.SlowdownModel` can be wrapped in a
:class:`RecordingSlowdown`; every queried ``(worker, iteration) ->
factor`` is captured and can be serialized to JSON.  A
:class:`TraceSlowdown` replays such a table bit-exactly (JSON float
serialization via ``repr`` round-trips IEEE doubles), so a slowdown
pattern observed once — from a real cluster log or from a stochastic
model — becomes a reproducible scenario.

Format (version 1)::

    {"format": "repro.slowdown-trace/v1",
     "default": 1.0,
     "source": "markov(6x, enter=0.05, exit=0.25)",
     "factors": {"0": {"3": 6.0, "4": 6.0}, "2": {"11": 6.0}}}

Only non-default factors are stored, keyed worker -> iteration ->
factor (JSON objects require string keys).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.scenarios.models import SlowdownModel

TRACE_FORMAT = "repro.slowdown-trace/v1"


class TraceSlowdown(SlowdownModel):
    """Replay an explicit ``(worker, iteration) -> factor`` table."""

    def __init__(
        self,
        factors: Dict[Tuple[int, int], float],
        default: float = 1.0,
        source: str = "",
    ) -> None:
        if default < 1.0:
            raise ValueError(f"default factor must be >= 1, got {default}")
        for key, factor in factors.items():
            if factor < 1.0:
                raise ValueError(f"trace factor for {key} must be >= 1")
        self.factors = {
            (int(w), int(k)): float(f) for (w, k), f in factors.items()
        }
        self.default = float(default)
        self.source = source

    def factor(self, worker: int, iteration: int) -> float:
        return self.factors.get((worker, iteration), self.default)

    def describe(self) -> str:
        origin = f" from {self.source}" if self.source else ""
        return f"trace({len(self.factors)} entries{origin})"

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        nested: Dict[str, Dict[str, float]] = {}
        for (worker, iteration), factor in sorted(self.factors.items()):
            if factor == self.default:
                continue
            nested.setdefault(str(worker), {})[str(iteration)] = factor
        return {
            "format": TRACE_FORMAT,
            "default": self.default,
            "source": self.source,
            "factors": nested,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceSlowdown":
        if payload.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"not a slowdown trace (format={payload.get('format')!r}, "
                f"expected {TRACE_FORMAT!r})"
            )
        factors = {
            (int(worker), int(iteration)): float(factor)
            for worker, row in payload.get("factors", {}).items()
            for iteration, factor in row.items()
        }
        return cls(
            factors,
            default=float(payload.get("default", 1.0)),
            source=payload.get("source", ""),
        )

    def save(self, path: Union[str, Path]) -> Path:
        from repro.harness.io import atomic_write_json

        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceSlowdown":
        return cls.from_dict(json.loads(Path(path).read_text()))


class RecordingSlowdown(SlowdownModel):
    """Transparent wrapper that records every factor it serves.

    The record can be exported as a :class:`TraceSlowdown` (or written
    straight to JSON) and replayed bit-exactly — the record -> replay
    round trip is property-tested.
    """

    def __init__(self, inner: SlowdownModel) -> None:
        self.inner = inner
        self.recorded: Dict[Tuple[int, int], float] = {}

    def factor(self, worker: int, iteration: int) -> float:
        value = self.inner.factor(worker, iteration)
        self.recorded[(worker, iteration)] = value
        return value

    def describe(self) -> str:
        return f"recording({self.inner.describe()})"

    def to_trace(self, default: float = 1.0) -> TraceSlowdown:
        return TraceSlowdown(
            dict(self.recorded), default=default, source=self.inner.describe()
        )

    def save(self, path: Union[str, Path], default: float = 1.0) -> Path:
        return self.to_trace(default).save(path)


def record_run_factors(
    model: SlowdownModel, n_workers: int, max_iter: int
) -> TraceSlowdown:
    """Materialize a model over a full ``workers x iterations`` grid."""
    recorder = RecordingSlowdown(model)
    for worker in range(n_workers):
        for iteration in range(max_iter):
            recorder.factor(worker, iteration)
    return recorder.to_trace()
