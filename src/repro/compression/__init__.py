"""Composable update compression (the payload-realism plane).

Public surface:

* :class:`CompressionSpec` — declarative scheme selection on an
  :class:`~repro.harness.spec.ExperimentSpec`.
* :class:`Compressor` / :class:`CompressedPayload` — the per-worker
  error-feedback channel and its wire form.
* The registry — :data:`COMPRESSORS`, :func:`register_compressor`,
  :func:`get_compressor`, :func:`build_compressor`,
  :func:`check_compression_params` and friends.
"""

from repro.compression.base import (
    CompressedPayload,
    CompressionSpec,
    Compressor,
)
from repro.compression.registry import (
    COMPRESSORS,
    build_compressor,
    check_compression_params,
    compression_table,
    get_compressor,
    register_compressor,
    registered_compressors,
)
from repro.compression.schemes import (
    Int8Compressor,
    RandomKCompressor,
    TopKCompressor,
)

__all__ = [
    "COMPRESSORS",
    "CompressedPayload",
    "CompressionSpec",
    "Compressor",
    "Int8Compressor",
    "RandomKCompressor",
    "TopKCompressor",
    "build_compressor",
    "check_compression_params",
    "compression_table",
    "get_compressor",
    "register_compressor",
    "registered_compressors",
]
