"""Unit and property tests for the compression plane.

Pins the contracts the golden cells and the payload pricing rely on:
wire-byte honesty (``CompressedPayload.nbytes == wire_bytes()``),
deterministic top-k tie-breaking (lowest index wins, sorted), seeded
random-k replay, the error-feedback conservation laws (hypothesis),
and the int8 round-trip error bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import CompressionSpec
from repro.compression.base import Compressor
from repro.compression.registry import (
    build_compressor,
    compression_table,
    get_compressor,
    registered_compressors,
)
from repro.compression.schemes import (
    INDEX_DTYPE,
    Int8Compressor,
    RandomKCompressor,
    TopKCompressor,
)


def dense_vectors(min_dim=1, max_dim=64):
    return st.integers(min_value=min_dim, max_value=max_dim).flatmap(
        lambda dim: st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
                width=64,
            ),
            min_size=dim,
            max_size=dim,
        ).map(lambda xs: np.array(xs, dtype=np.float64))
    )


class TestRegistry:
    def test_builtin_schemes_registered(self):
        assert {"topk", "randomk", "int8"} <= set(registered_compressors())

    def test_aliases_resolve(self):
        assert get_compressor("top-k").name == "topk"

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="registered compressors"):
            get_compressor("zstd")

    def test_none_builds_the_dense_path(self):
        assert build_compressor(None, 8, np.float64) is None
        spec = CompressionSpec("none")
        assert build_compressor(spec, 8, np.float64) is None

    def test_table_rows_carry_citations(self):
        rows = compression_table()
        assert {row["name"] for row in rows} == set(registered_compressors())
        assert all(row["summary"] and row["paper"] for row in rows)

    def test_bad_ratio_rejected(self):
        for ratio in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="ratio"):
                TopKCompressor(16, ratio=ratio)


class TestWireBytes:
    """Pricing must come from the same arithmetic as the buffers."""

    @pytest.mark.parametrize("scheme", ["topk", "randomk", "int8"])
    def test_payload_nbytes_equals_wire_bytes(self, scheme):
        compressor = build_compressor(
            CompressionSpec(scheme, {} if scheme == "int8" else {"ratio": 0.3}),
            dim=37,
            dtype=np.float64,
            seed=(1, 2),
        )
        payload = compressor.encode(np.linspace(-1.0, 1.0, 37))
        assert payload.nbytes == compressor.wire_bytes()

    def test_sparse_wire_arithmetic(self):
        compressor = TopKCompressor(100, ratio=0.1)
        assert compressor.k == 10
        assert compressor.wire_bytes() == 10 * (INDEX_DTYPE.itemsize + 8)
        assert compressor.dense_bytes() == 800
        assert compressor.wire_ratio() == pytest.approx(0.15)

    def test_int8_wire_arithmetic(self):
        compressor = Int8Compressor(100)
        assert compressor.wire_bytes() == 100 + 8  # bytes + one scale
        assert compressor.wire_ratio() == pytest.approx(108 / 800)


class TestTopKDeterminism:
    def test_ties_broken_by_lowest_index(self):
        # Every coordinate has equal magnitude: the survivors must be
        # the lowest indices, sorted — never argpartition's internal
        # (implementation-defined) order.
        compressor = TopKCompressor(8, ratio=0.5)
        payload = compressor.encode(np.ones(8))
        indices, values = payload.arrays
        np.testing.assert_array_equal(indices, [0, 1, 2, 3])
        np.testing.assert_array_equal(values, np.ones(4))

    def test_mixed_ties_at_threshold(self):
        values = np.array([3.0, -1.0, 1.0, 5.0, -1.0, 1.0])
        compressor = TopKCompressor(6, ratio=0.5)  # k=3
        indices, _ = compressor.encode(values).arrays
        # |3| and |5| are above the threshold |1|; the first tie (index
        # 1) completes the selection.
        np.testing.assert_array_equal(indices, [0, 1, 3])

    def test_indices_always_sorted(self):
        rng = np.random.default_rng(7)
        compressor = TopKCompressor(64, ratio=0.25)
        for _ in range(16):
            indices, _ = compressor.encode(rng.normal(size=64)).arrays
            assert np.all(np.diff(indices) > 0)

    def test_randomk_replays_per_seed(self):
        a = RandomKCompressor(64, ratio=0.25, seed=(1, 3, 0))
        b = RandomKCompressor(64, ratio=0.25, seed=(1, 3, 0))
        c = RandomKCompressor(64, ratio=0.25, seed=(1, 4, 0))
        values = np.linspace(0.0, 1.0, 64)
        masks_a = [a.encode(values).arrays[0] for _ in range(4)]
        masks_b = [b.encode(values).arrays[0] for _ in range(4)]
        assert all(np.array_equal(x, y) for x, y in zip(masks_a, masks_b))
        masks_c = [c.encode(values).arrays[0] for _ in range(4)]
        assert any(
            not np.array_equal(x, y) for x, y in zip(masks_a, masks_c)
        )


class TestErrorFeedback:
    @settings(max_examples=50, deadline=None)
    @given(dense_vectors())
    def test_full_rank_topk_is_lossless(self, values):
        # k == dim: decompress(compress(x)) must be x bitwise, with a
        # zero residual — the k -> n limit of the conservation law.
        compressor = TopKCompressor(values.size, ratio=1.0)
        payload, approx = compressor.compress(values)
        np.testing.assert_array_equal(approx, values)
        np.testing.assert_array_equal(
            compressor._residual, np.zeros_like(values)
        )

    @settings(max_examples=50, deadline=None)
    @given(dense_vectors(min_dim=4))
    def test_residual_conserves_the_dense_gradient(self, values):
        # transmitted + residual == input + carried, exactly: top-k
        # moves coordinates verbatim (no arithmetic), so the identity
        # holds bitwise coordinate-by-coordinate.
        compressor = TopKCompressor(values.size, ratio=0.25)
        carried = compressor._residual.copy()
        _, approx = compressor.compress(values)
        np.testing.assert_array_equal(
            approx + compressor._residual, values + carried
        )
        # Sparse support and residual support are disjoint.
        assert not np.any((approx != 0) & (compressor._residual != 0))

    @settings(max_examples=50, deadline=None)
    @given(dense_vectors())
    def test_int8_roundtrip_error_bounded(self, values):
        compressor = Int8Compressor(values.size)
        payload = compressor.encode(values)
        decoded = compressor.decode(payload)
        peak = np.max(np.abs(values)) if values.size else 0.0
        scale = peak / 127.0
        # round-to-nearest: per-coordinate error <= scale / 2 (plus an
        # ulp of slack for the scale multiply).
        bound = scale / 2 + 1e-9 * max(peak, 1.0)
        assert np.all(np.abs(decoded - values) <= bound)

    @settings(max_examples=30, deadline=None)
    @given(dense_vectors(min_dim=2))
    def test_reference_mode_tracks_params(self, params):
        # CHOCO reference tracking: repeatedly encoding the same
        # parameter vector drives the shared reference toward it.
        compressor = TopKCompressor(params.size, ratio=0.5)
        gap = None
        for _ in range(8):
            _, reconstruction = compressor.encode_state(params)
            gap = np.max(np.abs(reconstruction - params))
        assert gap <= 1e-6 * max(1.0, np.max(np.abs(params)))

    def test_compress_rejects_nothing_but_shape(self):
        compressor = TopKCompressor(4, ratio=0.5)
        payload, approx = compressor.compress(np.array([1.0, -2.0, 0.5, 3.0]))
        assert approx.shape == (4,)
        assert payload.dim == 4


class TestExtensionPoint:
    """The ARCHITECTURE add-a-compressor walkthrough, as a test."""

    def test_register_and_run_a_custom_compressor(self):
        from repro.compression.registry import (
            COMPRESSORS,
            register_compressor,
        )

        class HalfCompressor(Compressor):
            """Keep the first half of the vector (a toy codec)."""

            name = "half"

            def encode(self, values):
                from repro.compression.base import CompressedPayload

                kept = self.dim - self.dim // 2
                return CompressedPayload(
                    (values[:kept].copy(),), self.dim
                )

            def decode(self, payload):
                (kept,) = payload.arrays
                dense = np.zeros(self.dim, dtype=self.dtype)
                dense[: kept.size] = kept
                return dense

            def wire_bytes(self):
                kept = self.dim - self.dim // 2
                return kept * self.dtype.itemsize

        register_compressor(
            "half",
            lambda dim, dtype, seed: HalfCompressor(dim, dtype),
            summary="keep the first half (walkthrough example)",
            paper="ARCHITECTURE.md",
        )
        try:
            from repro.harness.golden import conformance_spec
            from repro.harness.spec import run_spec

            spec = conformance_spec("allreduce", "none").with_(
                compression=CompressionSpec("half")
            )
            run = run_spec(spec)
            dense = run_spec(conformance_spec("allreduce", "none"))
            dim = run.final_params.shape[-1]
            ratio = (dim - dim // 2) / dim
            assert run.bytes_sent == pytest.approx(dense.bytes_sent * ratio)
            assert np.all(np.isfinite(run.final_params))
        finally:
            COMPRESSORS.remove("half")
