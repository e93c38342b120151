"""The zero-copy parameter plane: packing, aliasing rules, reducers.

PR 4's tentpole restructured models around one contiguous flat buffer
and made the reducers accumulate into reusable scratch.  These tests
pin the ownership contract (views alias, copies don't), the
bit-exactness of the new accumulation order, and the dtype-drift fix
in ``weighted_reduce``.
"""

import numpy as np
import pytest

from repro.core.reducers import (
    mean_reduce,
    staleness_weighted_reduce,
    weighted_reduce,
)
from repro.core.update import Update
from repro.ml.layers import Dense, ReLU
from repro.ml.losses import SoftmaxCrossEntropy
from repro.ml.models import Model, Sequential, build_svm
from repro.ml.params import Parameter, pack_parameters, readonly_view


def make_model(dtype=np.float64):
    rng = np.random.default_rng(0)
    layers = [Dense(6, 5, rng), ReLU(), Dense(5, 3, rng)]
    model = Model(Sequential(layers), SoftmaxCrossEntropy())
    if dtype is not np.float64:
        model.astype(dtype)
    return model


class TestPackParameters:
    def test_values_preserved_and_aliased(self):
        rng = np.random.default_rng(1)
        params = [
            Parameter(rng.normal(size=(3, 4)), "a"),
            Parameter(rng.normal(size=(4,)), "b"),
        ]
        originals = [p.data.copy() for p in params]
        flat, flat_grad = pack_parameters(params)
        assert flat.size == 16 and flat_grad.size == 16
        for p, original in zip(params, originals):
            np.testing.assert_array_equal(p.data, original)
            # Views share memory with the flat buffer in both directions.
            assert p.data.base is flat
            assert p.grad.base is flat_grad
        flat[:] = 0.0
        assert (params[0].data == 0).all() and (params[1].data == 0).all()
        params[0].grad += 1.0
        assert (flat_grad[:12] == 1.0).all()

    def test_mixed_dtypes_promote_like_concatenate(self):
        params = [
            Parameter(np.ones((2,), dtype=np.float32)),
            Parameter(np.ones((2,), dtype=np.float64)),
        ]
        flat, _ = pack_parameters(params)
        assert flat.dtype == np.float64

    def test_empty_list(self):
        flat, grad = pack_parameters([])
        assert flat.size == 0 and grad.size == 0


class TestModelFlatBuffer:
    def test_get_params_is_readonly_live_view(self):
        model = make_model()
        view = model.get_params()
        assert not view.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            view[0] = 1.0
        # The view tracks set_params (aliasing, not a snapshot).
        new = np.arange(model.dim, dtype=float)
        model.set_params(new)
        np.testing.assert_array_equal(view, new)

    def test_get_params_copy_is_stable(self):
        model = make_model()
        snapshot = model.get_params_copy()
        before = snapshot.copy()
        model.set_params(np.zeros(model.dim))
        np.testing.assert_array_equal(snapshot, before)

    def test_set_params_size_mismatch_raises(self):
        model = make_model()
        with pytest.raises(ValueError):
            model.set_params(np.zeros(model.dim + 1))

    def test_grad_is_view_of_flat_grad_buffer(self):
        model = make_model()
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 3, size=8)
        _, grad = model.loss_and_grad(x, y)
        assert not grad.flags.writeable
        grad_before = grad.copy()
        # The next compute overwrites the same buffer in place.
        model.loss_and_grad(x[::-1].copy(), y[::-1].copy())
        assert not np.array_equal(grad, grad_before)

    def test_astype_repacks(self):
        model = make_model()
        model.astype(np.float32)
        assert model.get_params().dtype == np.float32
        rng = np.random.default_rng(3)
        loss, grad = model.loss_and_grad(
            rng.normal(size=(4, 6)).astype(np.float32),
            rng.integers(0, 3, size=4),
        )
        assert np.isfinite(loss)
        assert grad.dtype == np.float32

    def test_training_still_works_end_to_end(self):
        model = make_model()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(32, 6))
        y = rng.integers(0, 3, size=32)
        params = model.get_params_copy()
        first_loss = None
        for _ in range(30):
            model.set_params(params)
            loss, grad = model.loss_and_grad(x, y)
            if first_loss is None:
                first_loss = loss
            params = params - 0.5 * grad
        assert loss < first_loss


def updates(arrays):
    return [Update(np.asarray(a), i, i) for i, a in enumerate(arrays)]


class TestReducers:
    def test_mean_matches_stack_mean_bitwise(self):
        rng = np.random.default_rng(5)
        for dtype in (np.float32, np.float64):
            for k in (1, 2, 3, 7, 16):
                us = updates(
                    [rng.normal(size=33).astype(dtype) for _ in range(k)]
                )
                expected = np.stack([u.params for u in us]).mean(axis=0)
                got = mean_reduce(us)
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()

    def test_out_buffer_reused_when_compatible(self):
        rng = np.random.default_rng(6)
        us = updates([rng.normal(size=9) for _ in range(3)])
        out = np.empty(9)
        result = mean_reduce(us, out=out)
        assert result is out
        # Incompatible dtype: a fresh buffer is returned instead.
        us32 = updates(
            [rng.normal(size=9).astype(np.float32) for _ in range(3)]
        )
        result32 = mean_reduce(us32, out=out)
        assert result32 is not out and result32.dtype == np.float32

    def test_reduce_does_not_alias_inputs(self):
        us = updates([np.ones(4), 3.0 * np.ones(4)])
        result = mean_reduce(us)
        result += 100.0
        np.testing.assert_array_equal(us[0].params, np.ones(4))
        np.testing.assert_array_equal(us[1].params, 3.0 * np.ones(4))

    def test_weighted_keeps_float32_dtype(self):
        """Satellite regression: float64 weights must not promote a
        float32 reduce to float64 mid-flight."""
        rng = np.random.default_rng(7)
        us = updates(
            [rng.normal(size=17).astype(np.float32) for _ in range(4)]
        )
        result = weighted_reduce(us, [1.0, 2.0, 3.0, 4.0])
        assert result.dtype == np.float32

    def test_weighted_matches_legacy_float64_bitwise(self):
        rng = np.random.default_rng(8)
        us = updates([rng.normal(size=21) for _ in range(5)])
        weights = rng.uniform(0.5, 3.0, size=5)
        stacked = np.stack([u.params for u in us])
        legacy = (weights[:, None] * stacked).sum(axis=0) / weights.sum()
        got = weighted_reduce(us, weights)
        assert got.tobytes() == legacy.tobytes()

    def test_weighted_validation(self):
        us = updates([np.ones(3), np.ones(3)])
        with pytest.raises(ValueError):
            weighted_reduce(us, [1.0])
        with pytest.raises(ValueError):
            weighted_reduce(us, [-1.0, 1.0])
        with pytest.raises(ValueError):
            weighted_reduce(us, [0.0, 0.0])
        with pytest.raises(ValueError):
            mean_reduce([])

    def test_staleness_weighted_uses_scratch(self):
        us = [Update(np.full(5, float(i + 1)), i + 3, i) for i in range(3)]
        out = np.empty(5)
        result = staleness_weighted_reduce(us, iteration=5, staleness=3, out=out)
        assert result is out
        # weights = iter - (k - s) + 1 = [2, 3, 4]
        expected = (
            2.0 * us[0].params + 3.0 * us[1].params + 4.0 * us[2].params
        ) / 9.0
        np.testing.assert_allclose(result, expected)


class TestOptimizerInPlace:
    def test_step_matches_legacy_arithmetic_bitwise(self):
        from repro.ml.optim import SGD

        rng = np.random.default_rng(9)
        params = rng.normal(size=40)
        grads = [rng.normal(size=40) for _ in range(6)]

        new = SGD(lr=0.1, momentum=0.9, weight_decay=1e-4)
        velocity = None
        for grad in grads:
            delta = new.step(params, grad)
            # Legacy out-of-place reference.
            g = np.asarray(grad, dtype=np.float64)
            g = g + 1e-4 * np.asarray(params, dtype=np.float64)
            velocity = g if velocity is None else 0.9 * velocity + g
            legacy = -0.1 * velocity
            assert delta.tobytes() == legacy.tobytes()
            params = params + delta

    def test_returned_delta_is_owned(self):
        from repro.ml.optim import SGD

        opt = SGD(lr=0.1, momentum=0.9, weight_decay=1e-4)
        params = np.ones(8)
        first = opt.step(params, np.ones(8))
        snapshot = first.copy()
        opt.step(params, 2.0 * np.ones(8))
        np.testing.assert_array_equal(first, snapshot)

    def test_readonly_grad_view_accepted(self):
        from repro.ml.optim import SGD

        grad = readonly_view(np.ones(8))
        for opt in (
            SGD(lr=0.1),
            SGD(lr=0.1, momentum=0.9),
            SGD(lr=0.1, momentum=0.9, weight_decay=1e-4),
        ):
            delta = opt.step(np.ones(8), grad)
            assert delta.flags.writeable
