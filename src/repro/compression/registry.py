"""The compressor registry: name -> compressor builder.

Every compression scheme registers in :data:`COMPRESSORS` (a
:class:`~repro.registry.Registry`); ``ExperimentSpec.compression`` and
``repro train --compression`` resolve schemes there.  Adding one is a
:class:`~repro.compression.base.Compressor` subclass, a builder and a
:func:`register_compressor` call (the ARCHITECTURE walkthrough).

Builders receive ``(dim, dtype, seed, **params)`` where ``seed`` is a
sequence identifying the (experiment, worker, stream) triple — seeded
schemes (random-k) must draw all randomness from it so same-seed runs
stay bitwise deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.compression.base import CompressionSpec, Compressor
from repro.compression.schemes import (
    Int8Compressor,
    RandomKCompressor,
    TopKCompressor,
)
from repro.registry import Registry


@dataclass(frozen=True)
class CompressorInfo:
    """One registered compression scheme.

    Attributes:
        builder: ``f(dim, dtype, seed, **params) -> Compressor``.
        summary: One-line description for ``--help`` and docs tables.
        paper: Citation for the scheme's source.
    """

    name: str
    builder: Callable[..., Compressor]
    summary: str = ""
    paper: str = ""
    aliases: tuple = ()


#: Every registered compression scheme.
COMPRESSORS: Registry[CompressorInfo] = Registry(
    "compressor", CompressorInfo
)

#: ``register_compressor(name, builder, summary=, paper=, aliases=)`` —
#: the :class:`CompressorInfo` fields.
register_compressor = COMPRESSORS.register
get_compressor = COMPRESSORS.get
registered_compressors = COMPRESSORS.names


def compression_table() -> List[dict]:
    """``[{name, aliases, summary, paper}, ...]`` rows for docs/CLI."""
    return COMPRESSORS.table(("name", "aliases", "summary", "paper"))


def build_compressor(
    spec: Optional[CompressionSpec],
    dim: int,
    dtype,
    seed: Sequence[int] = (0,),
) -> Optional[Compressor]:
    """Instantiate the compressor a :class:`CompressionSpec` describes.

    ``None`` (and the explicit name ``"none"``) mean *uncompressed*:
    the caller keeps the dense fast path untouched.
    """
    if spec is None or spec.name == "none":
        return None
    return get_compressor(spec.name).builder(dim, dtype, seed, **spec.params)


def _build_topk(dim, dtype, seed, ratio: float = 0.01) -> Compressor:
    return TopKCompressor(dim, dtype, ratio=ratio)


def _build_randomk(dim, dtype, seed, ratio: float = 0.01) -> Compressor:
    return RandomKCompressor(dim, dtype, ratio=ratio, seed=seed)


def _build_int8(dim, dtype, seed) -> Compressor:
    return Int8Compressor(dim, dtype)


register_compressor(
    "topk",
    _build_topk,
    summary="top-k magnitude sparsification with error feedback "
    "(knob: ratio; deterministic index-order tie-breaking)",
    paper="Lin et al., Deep Gradient Compression (ICLR 2018); "
    "Karimireddy et al., arXiv:1901.09847 (error feedback)",
    aliases=("top-k",),
)
register_compressor(
    "randomk",
    _build_randomk,
    summary="seeded random-k sparsification with error feedback "
    "(knob: ratio; per-worker replayable masks)",
    paper="Stich et al., Sparsified SGD with Memory (NeurIPS 2018)",
    aliases=("random-k",),
)
register_compressor(
    "int8",
    _build_int8,
    summary="uniform int8 quantization, per-message scale "
    "(round-trip error <= scale/2)",
    paper="Alistarh et al., QSGD (NeurIPS 2017)",
)
