"""What an idle replica holds, and what importing the package loads.

* the ``Batcher`` grows its index prefetch 1, 2, 4, ... up to 32 rows,
  stream-identically to the fixed 32-row prefetch it replaced;
* every layer releases its activation cache in ``backward``;
* the conv / pool kernels' cached plans hold no more than they did
  before the unpadded plan and the interior-only operator, a plan
  covers at most one training batch of samples, and a 2x2 pool's
  training cache is a byte per window;
* no run path loads scipy: not importing the package, an SVM step or
  run (its sigmoid is numpy's), nor a CNN step.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.ml import (
    Batcher,
    build_svm,
    build_vgg_lite,
    synthetic_images,
    synthetic_webspam,
)
from repro.harness.workloads import cnn_workload
from repro.ml import layers
from repro.ml.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU


class FixedPrefetchBatcher(Batcher):
    """The replaced sampler: one ``(_PREFETCH, batch)`` draw per refill."""

    def next_batch(self):
        block = self._block
        if block is None or self._cursor >= len(block):
            block = self._block = self._rng.integers(
                0, len(self.x), size=(self._PREFETCH, self.batch_size)
            )
            self._cursor = 0
        idx = block[self._cursor]
        self._cursor += 1
        return self.x[idx], self.y[idx]


class TestDoublingPrefetch:
    # An odd batch size: a block draw must also agree with sequential
    # draws when a row ends half-way through a buffered 64-bit word.
    BATCH = 7

    @pytest.fixture(scope="class")
    def data(self):
        x = np.arange(300, dtype=float).reshape(100, 3)
        return x, np.arange(100)

    @pytest.mark.parametrize("horizon", range(1, 71))
    def test_batches_equal_the_fixed_prefetch(self, data, horizon):
        x, y = data
        new = Batcher(x, y, self.BATCH, np.random.default_rng(horizon))
        old = FixedPrefetchBatcher(
            x, y, self.BATCH, np.random.default_rng(horizon)
        )
        fetched = 0
        for drawn in range(1, horizon + 1):
            xb, yb = new.next_batch()
            ref_x, ref_y = old.next_batch()
            assert np.array_equal(xb, ref_x) and np.array_equal(yb, ref_y)
            if new._cursor == 1:
                fetched += len(new._block)
            assert len(new._block) <= Batcher._PREFETCH
            # Never twice what the run has used so far.
            assert fetched < 2 * drawn

    def test_block_sizes_double_up_to_the_cap(self, data):
        x, y = data
        batcher = Batcher(x, y, self.BATCH, np.random.default_rng(0))
        sizes = []
        for _ in range(70):
            batcher.next_batch()
            if batcher._cursor == 1:
                sizes.append(len(batcher._block))
        assert sizes == [1, 2, 4, 8, 16, 32, 32]


def cached_state(layer):
    """Whatever the layer keeps between forward and backward."""
    return {
        name: value
        for name, value in vars(layer).items()
        if name in ("_x", "_cache", "_mask", "_shape")
        and value is not None
    }


class TestActivationCachesAreReleased:
    def svm(self):
        rng = np.random.default_rng(0)
        data = synthetic_webspam(rng, n_train=64, n_test=16, n_features=12)
        return build_svm(rng, 12), data.x_train[:8], data.y_train[:8]

    def cnn(self):
        rng = np.random.default_rng(0)
        data = synthetic_images(rng, n_train=16, n_test=8)
        model = build_vgg_lite(rng)
        return model, data.x_train[:4], data.y_train[:4]

    @pytest.mark.parametrize("build", ["svm", "cnn"])
    def test_no_layer_holds_a_cache_after_loss_and_grad(self, build):
        model, x, y = getattr(self, build)()
        model.network.forward(x, training=True)
        assert any(cached_state(layer) for layer in model.network.layers)
        model.loss_and_grad(x, y)
        for layer in model.network.layers:
            assert cached_state(layer) == {}, layer

    @pytest.mark.parametrize("build", ["svm", "cnn"])
    def test_second_backward_raises(self, build):
        model, x, y = getattr(self, build)()
        scores = model.network.forward(x, training=True)
        model.network.backward(np.ones_like(scores))
        with pytest.raises(RuntimeError, match="backward"):
            model.network.backward(np.ones_like(scores))

    def test_gradients_do_not_depend_on_the_previous_step(self):
        model, x, y = self.cnn()
        fresh, _, _ = self.cnn()
        model.loss_and_grad(x[::-1], y[::-1])
        value, grad = model.loss_and_grad(x, y)
        ref_value, ref_grad = fresh.loss_and_grad(x, y)
        assert value == ref_value and np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize(
        "layer, shape",
        [
            (Dense(6, 3, np.random.default_rng(0)), (4, 6)),
            (ReLU(), (4, 6)),
            (Flatten(), (4, 2, 3)),
            (Conv2D(2, 3, 3, np.random.default_rng(0), pad=1), (2, 2, 4, 4)),
            (MaxPool2D(2), (2, 2, 4, 4)),
            (MaxPool2D(4), (2, 2, 4, 4)),
        ],
        ids=repr,
    )
    def test_each_layer_releases_and_then_refuses(self, layer, shape):
        x = np.random.default_rng(1).normal(size=shape)
        out = layer.forward(x, training=True)
        layer.backward(np.ones_like(out))
        assert cached_state(layer) == {}
        with pytest.raises(RuntimeError, match="backward"):
            layer.backward(np.ones_like(out))
        # A new forward re-arms it; an evaluation forward does not.
        layer.backward(np.ones_like(layer.forward(x, training=True)))
        layer.forward(x, training=False)
        assert cached_state(layer) == {}
        with pytest.raises(RuntimeError, match="backward"):
            layer.backward(np.ones_like(out))


def held_bytes(value):
    """Bytes behind a cached plan or table."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(held_bytes(item) for item in value)
    return 0


class TestKernelCaches:
    #: What the same step and evaluation left in the ``lru_cache``s at
    #: 31a55f6: four padded-coordinate plans (13,271,040 B), one col2im
    #: operator with a row per *padded* pixel (663,556 B), two pool
    #: scatter bases (98,304 B).
    PARENT_BYTES = 14_032_900

    def test_plans_and_operators_hold_no_more_than_before(self):
        cached = (
            layers._conv_plan,
            layers._col2im_plan,
            layers._pool_scatter_base,
            layers._pool_offsets,
        )
        for function in cached:
            function.cache_clear()
        workload = cnn_workload("paper")
        data, batch = workload.dataset, workload.batch_size
        model = workload.model_factory(np.random.default_rng(0))
        model.loss_and_grad(data.x_train[:batch], data.y_train[:batch])
        model.evaluate(data.x_test, data.y_test)
        rows = len(data.x_test)
        assert (batch, rows) == (64, 512) and batch == layers._PLAN_SAMPLES

        # One plan per conv (the 512-row evaluation is gathered in
        # 64-sample blocks through the training batch's plan), one col2im
        # plan (the first conv's input gradient has no consumer), one
        # base and one offset table per pool: nothing cached twice.
        assert [f.cache_info().currsize for f in cached] == [2, 1, 2, 2]
        held = [
            layers._conv_plan((batch, c, size, size), 3, 3, 1, 1)
            for c, size in ((3, 8), (8, 4))
        ]
        gather = layers._col2im_plan((batch, 8, 4, 4), 3, 3, 1, 1)
        # Nine taps per pixel; a border pixel's missing ones point at
        # the zero slot (100 of the 144 entries per 4 x 4 channel are
        # real, as in the CSR operator this replaced).
        assert gather.shape == (9, batch * 8 * 4 * 4)
        assert np.count_nonzero(gather != 72 * batch * 16) == (
            8 * batch * 100
        )
        held.append(gather)
        # Each pool's input is its conv's (c, n, h, w) buffer seen
        # through a transpose: the base is keyed by that layout.
        for c, size in ((8, 8), (16, 4)):
            held.append(
                layers._pool_scatter_base(
                    (batch, c, size, size), 2, layers._CNHW
                )
            )
            held.append(layers._pool_offsets(2, size))
        # Every lookup above was a hit: these are the cached objects.
        assert [f.cache_info().currsize for f in cached] == [2, 1, 2, 2]
        total = sum(held_bytes(value) for value in held)
        assert total == 2_162_752
        assert total <= self.PARENT_BYTES

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_training_cache_is_one_byte_per_window(self, dtype):
        layer = MaxPool2D(2)
        x = np.random.default_rng(0).normal(size=(4, 3, 8, 6)).astype(dtype)
        out = layer.forward(x, training=True)
        shape, first, order = layer._cache
        assert shape == x.shape and order == layers._NCHW
        assert first.dtype == np.uint8
        assert first.nbytes == out.size == 4 * 3 * 4 * 3
        # ... and not a view that keeps something larger alive.
        owner = first if first.base is None else first.base
        assert owner.nbytes == out.size


def loaded_scipy_modules(body):
    """Run ``body`` in a fresh interpreter; the scipy modules it loaded."""
    src = str(Path(repro.__file__).resolve().parents[1])
    script = textwrap.dedent(body) + textwrap.dedent(
        """
        import sys
        print(",".join(sorted(
            m for m in sys.modules if m.split(".")[0] == "scipy"
        )))
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(filter(None, result.stdout.strip().split(",")))


#: What a run needs, and ``build(protocol, topology)``: a smoke SVM cell
#: of 4 iterations.
SVM_CELL = textwrap.dedent(
    """
    import numpy as np
    from repro.graphs import bipartite_ring, ring_based
    from repro.harness.spec import ExperimentSpec
    from repro.harness.workloads import by_name
    from repro.protocols.registry import build_cluster

    def build(protocol, topology):
        return build_cluster(ExperimentSpec(
            name=protocol, workload=by_name("svm", "smoke"),
            topology=topology, protocol=protocol, max_iter=4, seed=0,
        ))
    """
)


class TestNoScipyOnTheRunPath:
    def test_importing_the_package_loads_no_scipy(self):
        assert loaded_scipy_modules(
            "import repro.harness.spec, repro.service, repro.cli"
        ) == set()

    @pytest.mark.parametrize(
        "run",
        [
            """
            from repro.ml import build_svm
            model = build_svm(np.random.default_rng(0), 5)
            model.loss_and_grad(np.ones((4, 5)), np.array([0, 1, 1, 0]))
            """,
            """
            cluster = build("hop", ring_based(8))
            cluster.run()
            assert cluster.record is not None  # replayed
            """,
            """
            cluster = build("ps-async", ring_based(8))
            cluster.run()
            assert cluster.record is not None  # replayed
            """,
            """
            cluster = build("adpsgd", bipartite_ring(8))
            cluster.run()
            assert cluster.runtime.compute.stacked  # eager, on tickets
            """,
        ],
        ids=["svm-loss-and-grad", "hop-replay", "ps-async", "adpsgd-eager"],
    )
    def test_svm_runs_load_no_scipy(self, run):
        """The SVM's sigmoid is numpy's: no run path loads scipy."""
        assert loaded_scipy_modules(SVM_CELL + textwrap.dedent(run)) == set()

    def test_cnn_step_and_evaluation_load_no_scipy(self):
        assert loaded_scipy_modules(
            """
            import numpy as np
            from repro.harness.workloads import cnn_workload
            workload = cnn_workload("smoke")
            data, batch = workload.dataset, workload.batch_size
            model = workload.model_factory(np.random.default_rng(0))
            model.loss_and_grad(data.x_train[:batch], data.y_train[:batch])
            rows = np.arange(512) % len(data.x_test)
            model.evaluate(data.x_test[rows], data.y_test[rows])
            """
        ) == set()
