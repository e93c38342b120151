"""The compute seam: deferred, stacked gradients against the calls they
replaced.

Two oracles, both the removed spelling kept in this file:

* the **kernel oracle** — a loop of ``Model.loss_and_grad`` over the
  same parameters and indices, against which the stacked SVM kernel
  must agree bit for bit (losses as Python floats, ``_flat_grad`` as
  bytes, so a ``-0.0`` would not pass for a ``0.0``);
* the **deferral oracle** — :class:`EagerPool`, which evaluates each
  ticket at submit exactly as the eight hand-copied call sites did,
  against which whole runs of all nine protocols must agree.

The replay's level evaluation (``ComputePool.evaluate_rows``) is held to
the kernel oracle too.  Then the ticket lifecycle rules, one test each,
the pool's counters, and one test per protocol that its call site
actually batches.
"""

import dataclasses
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.horizon import Horizon
from repro.graphs import bipartite_ring, ring_based
from repro.harness.golden import BIPARTITE_PROTOCOLS, golden_fingerprint
from repro.harness.io import run_to_dict
from repro.harness.spec import RANDOM_6X, ExperimentSpec
from repro.harness.workloads import cnn_workload, svm_workload
from repro.ml import compute
from repro.ml.compute import ComputeError, ComputePool, Ticket
from repro.ml.data import Batcher, Horizons
from repro.ml.layers import Dense, ReLU
from repro.ml.losses import LogisticLoss, SoftmaxCrossEntropy
from repro.ml.models import Model, Sequential, build_svm
from repro.protocols import registered_protocols
from repro.protocols.base import ProtocolRuntime, TrainingRun
from repro.protocols.registry import build_cluster

PROTOCOLS = tuple(registered_protocols())


# ----------------------------------------------------------------------
# The kernel oracle
# ----------------------------------------------------------------------
def make_data(rng, n_rows, features, signed):
    x = rng.normal(size=(n_rows, features))
    x *= rng.random((n_rows, features)) < 0.5  # webspam-like zeros
    y = rng.integers(0, 2, size=n_rows)
    return x, (2 * y - 1 if signed else y)


def make_models(rng, count, features):
    models = [build_svm(np.random.default_rng(0), features) for _ in range(count)]
    for model in models:
        model.set_params(rng.normal(size=features + 1))
    return models


def loop_oracle(models, x, y, idx):
    """The removed spelling: one ``loss_and_grad`` per model."""
    out = []
    for model, row in zip(models, idx):
        loss, grad = model.loss_and_grad(x[row], y[row])
        out.append((loss, grad.tobytes()))
    return out


def stacked_through_pool(models, x, y, idx):
    """The same gradients through submit / result (chunked flush)."""
    pool = ComputePool(models)
    tickets = [
        pool.submit(model, FixedBatcher(x, y, row))
        for model, row in zip(models, idx)
    ]
    out = []
    for ticket in tickets:
        loss, grad = ticket.result()
        assert grad is ticket.model._grad_view and not grad.flags.writeable
        out.append((loss, grad.tobytes()))
    assert (pool.flushes, pool.stacked, pool.fallback) == (1, len(models), 0)
    return out


def stacked_through_rows(models, x, y, idx):
    """The same gradients as one replay level (``evaluate_rows``)."""
    pool = ComputePool(models)
    params = np.stack([m.get_params() for m in models])
    wids = np.arange(len(models))
    losses, grads = pool.evaluate_rows(
        wids, np.zeros_like(wids), params, FixedRows(x, y, idx)
    )
    assert (pool.levels, pool.rows, pool.tickets) == (1, len(models), 0)
    return [(loss, grad.tobytes()) for loss, grad in zip(losses, grads)]


class FixedBatcher:
    """A batcher whose next batch is a given index row."""

    def __init__(self, x, y, row):
        self.x, self.y, self._row = x, y, row
        self.batch_size = len(row)

    def next_indices(self):
        return self._row


class FixedRows:
    """Horizons whose every batch of worker ``w`` is ``idx[w]``."""

    def __init__(self, x, y, idx):
        self.x, self.y, self._idx = x, y, idx
        self.batch_size = idx.shape[1]

    def rows(self, wids, ks):
        return self._idx[wids]


def mismatches(new, old):
    return [
        i
        for i, (a, b) in enumerate(zip(new, old))
        if type(a[0]) is not float or a != b
    ]


kernel_cases = st.tuples(
    st.integers(1, 70),  # tickets: crosses the 16- and 4-ticket chunks
    st.sampled_from([1, 32, 64, 128]),  # features
    st.sampled_from([1, 32, 64, 128]),  # batch
    st.booleans(),  # -1/+1 labels instead of 0/1
    st.booleans(),  # few distinct rows: indices repeat within a batch
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(kernel_cases)
def test_stacked_kernel_equals_loss_and_grad_loop_bitwise(case):
    count, features, batch, signed, repeats, seed = case
    rng = np.random.default_rng(seed)
    x, y = make_data(rng, 3 if repeats else 200, features, signed)
    idx = rng.integers(0, len(x), size=(count, batch))
    models = make_models(rng, count, features)
    expected = loop_oracle(models, x, y, idx)
    for model in models:
        model.zero_grad()

    params = np.stack([m.get_params() for m in models])
    losses, grads = compute.svm_stacked_loss_and_grad(params, x, y, idx)
    direct = [(l, g.tobytes()) for l, g in zip(losses, grads)]
    assert mismatches(direct, expected) == []

    for model in models:
        model.zero_grad()
    assert mismatches(stacked_through_pool(models, x, y, idx), expected) == []
    assert mismatches(stacked_through_rows(models, x, y, idx), expected) == []


def test_oracle_catches_a_one_ulp_mutation_of_the_kernel(monkeypatch):
    """Mutation check: perturb one op of the kernel by one ulp and the
    comparison above must see it (so it is comparing bits, on every
    ticket, including the ones past the first chunk)."""
    rng = np.random.default_rng(7)
    x, y = make_data(rng, 200, 64, signed=False)
    idx = rng.integers(0, len(x), size=(40, 64))
    models = make_models(rng, 40, 64)
    expected = loop_oracle(models, x, y, idx)
    assert mismatches(stacked_through_pool(models, x, y, idx), expected) == []

    real = compute.losses.expit_neg

    class Mutated:
        LogisticLoss = compute.losses.LogisticLoss

        @staticmethod
        def expit_neg(z):
            return np.nextafter(real(z), 2.0)

    monkeypatch.setattr(compute, "losses", Mutated)
    mutated = stacked_through_pool(models, x, y, idx)
    assert len(mismatches(mutated, expected)) == len(models)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda x, y: (x, np.where(np.arange(len(y)) == 5, 2, y)),  # bad label
        lambda x, y: (x[:, :-1], y),  # feature-count mismatch
        lambda x, y: (x.astype(np.float32), y),  # outside the guarantee
    ],
    ids=["bad-label", "dense-shape", "float32-rows"],
)
def test_kernel_declines_what_it_does_not_reproduce(spoil):
    rng = np.random.default_rng(3)
    x, y = spoil(*make_data(rng, 50, 8, signed=False))
    idx = np.arange(20).reshape(2, 10)
    params = np.stack([m.get_params() for m in make_models(rng, 2, 8)])
    before = params.copy()
    assert compute.svm_stacked_loss_and_grad(params, x, y, idx) is None
    assert np.array_equal(params, before)


def test_a_bad_label_raises_the_loops_value_error_naming_the_worker():
    rng = np.random.default_rng(3)
    x, y = make_data(rng, 50, 8, signed=False)
    y[17] = 2
    models = make_models(rng, 3, 8)
    rows = [np.arange(0, 10), np.arange(10, 20), np.arange(20, 30)]
    with pytest.raises(ValueError) as loop_error:
        models[1].loss_and_grad(x[rows[1]], y[rows[1]])
    expected = loop_oracle([models[0], models[2]], x, y, [rows[0], rows[2]])

    pool = ComputePool(models)
    tickets = [
        pool.submit(model, FixedBatcher(x, y, row))
        for model, row in zip(models, rows)
    ]
    # Worker 0 asks; worker 1's labels are at fault.
    with pytest.raises(ComputeError, match=r"^worker 1: ValueError: ") as raised:
        tickets[0].result()
    cause = raised.value.__cause__
    assert type(cause) is ValueError
    assert str(cause) == str(loop_error.value)
    assert str(cause) in str(raised.value)
    # The failing ticket keeps failing; its neighbours are unharmed.
    with pytest.raises(ComputeError, match="worker 1"):
        tickets[1].result()
    got = [tickets[0].result(), tickets[2].result()]
    assert [(l, g.tobytes()) for l, g in got] == expected
    assert all(model._ticket is None for model in models)


def test_mixed_label_conventions_in_one_chunk_fall_back_per_ticket():
    # Each ticket is valid alone (0/1 and -1/+1); together they are
    # neither, so the chunk takes the kernel of record — same bits.
    rng = np.random.default_rng(5)
    x, y01 = make_data(rng, 40, 8, signed=False)
    y = y01.copy()
    y[20:] = 2 * y[20:] - 1
    assert set(y[:20]) == {0, 1} and set(y[20:]) == {-1, 1}
    idx = np.array([np.arange(0, 20), np.arange(20, 40)])
    models = make_models(rng, 2, 8)
    expected = loop_oracle(models, x, y, idx)
    pool = ComputePool(models)
    tickets = [
        pool.submit(model, FixedBatcher(x, y, row))
        for model, row in zip(models, idx)
    ]
    got = [(l, g.tobytes()) for l, g in (t.result() for t in tickets)]
    assert got == expected
    assert (pool.stacked, pool.fallback) == (0, 2)


def test_a_replay_block_the_kernel_declines_takes_loss_and_grad_per_row():
    # The mixed-convention chunk above, as one replay level: same bits
    # as the loop, and a bad label names its worker.
    rng = np.random.default_rng(5)
    x, y01 = make_data(rng, 40, 8, signed=False)
    y = y01.copy()
    y[20:] = 2 * y[20:] - 1
    idx = np.array([np.arange(0, 20), np.arange(20, 40)])
    models = make_models(rng, 2, 8)
    expected = loop_oracle(models, x, y, idx)
    pool = ComputePool(models)
    params = np.stack([m.get_params_copy() for m in models])
    wids = np.array([0, 1])
    losses, grads = pool.evaluate_rows(
        wids, np.zeros_like(wids), params, FixedRows(x, y, idx)
    )
    assert [(l, g.tobytes()) for l, g in zip(losses, grads)] == expected
    assert (pool.levels, pool.rows, pool.fallback) == (1, 2, 2)
    y[25] = 2
    with pytest.raises(ComputeError, match=r"^worker 1: ValueError: "):
        pool.evaluate_rows(
            wids, np.zeros_like(wids), params, FixedRows(x, y, idx)
        )


def mlp(rng, in_features):
    """A two-layer perceptron: a model the stacked kernel declines."""
    layers = [Dense(in_features, 4, rng), ReLU(), Dense(4, 2, rng)]
    return Model(Sequential(layers), SoftmaxCrossEntropy())


class OtherLogLoss(LogisticLoss):
    """A subclass may change the math, so the kernel declines it."""


def test_only_the_papers_svm_offers_a_stacked_kernel():
    rng = np.random.default_rng(0)
    svm = build_svm(rng, 8)
    assert svm.stacked_kernel is compute.svm_stacked_loss_and_grad
    other = Model(Sequential([Dense(8, 1, rng)]), OtherLogLoss())
    assert other.stacked_kernel is None
    single = Model(Sequential([Dense(8, 1, rng)]), SoftmaxCrossEntropy())
    assert single.stacked_kernel is None
    assert mlp(rng, 8).stacked_kernel is None
    assert build_svm(rng, 8).astype(np.float32).stacked_kernel is None
    assert cnn_workload("smoke").model_factory(rng).stacked_kernel is None
    svm.l2 = 0.1  # the regulariser lives outside the kernel
    assert svm.stacked_kernel is None


# ----------------------------------------------------------------------
# Batcher: one draw path
# ----------------------------------------------------------------------
def test_next_batch_is_next_indices_gathered():
    rng = np.random.default_rng(0)
    x, y = make_data(rng, 100, 4, signed=False)
    batches = Batcher(x, y, 8, np.random.default_rng(42))
    indices = Batcher(x, y, 8, np.random.default_rng(42))
    for _ in range(70):  # through every block size up to the cap
        xb, yb = batches.next_batch()
        idx = indices.next_indices()
        assert np.array_equal(xb, x[idx]) and np.array_equal(yb, y[idx])
    assert (
        batches._rng.bit_generator.state == indices._rng.bit_generator.state
    )


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.booleans(), st.integers(1, 70)), max_size=10),
    st.integers(0, 2**32 - 1),
)
def test_take_is_k_next_indices(steps, seed):
    """``take(k)`` returns the rows of ``k`` ``next_indices()`` calls,
    leftover rows of a prefetched block first, in one ``integers()``
    call at most, under any interleaving with ``next_indices``; the
    stream goes on as if it had drawn row by row."""
    rng = np.random.default_rng(0)
    x, y = make_data(rng, 50, 3, signed=False)
    taker = Batcher(x, y, 7, np.random.default_rng(seed))
    rows = Batcher(x, y, 7, np.random.default_rng(seed))
    for take, k in steps:
        expected = np.stack([rows.next_indices() for _ in range(k)])
        if take:
            draws = taker.draws
            block = taker.take(k)
            assert taker.draws - draws <= 1
        else:
            block = np.stack([taker.next_indices() for _ in range(k)])
        assert block.shape == (k, 7) and np.array_equal(block, expected)
    for _ in range(2 * Batcher._PREFETCH + 1):
        assert np.array_equal(taker.next_indices(), rows.next_indices())


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([5, 255, 256, 257, 65_536, 65_537]),
    st.integers(1, 70),
    st.integers(0, 6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_horizon_rows_are_next_indices(size, left, past, seeded, seed):
    """A worker's rows from :class:`Horizons` over ``left`` batches,
    asked for one ``k`` at a time, are the rows ``next_indices``
    returns, value for value, in the smallest unsigned dtype that holds
    ``size - 1``, in one ``integers()`` call per ``_PREFETCH`` rows of
    the horizon.  The window that reaches the horizon releases a seeded
    batcher's stream; a draw past it rebuilds the stream where it stood
    (the same stream, so the same rows)."""
    x, y = np.zeros((size, 1)), np.zeros(size)
    stream = seed if seeded else np.random.default_rng(seed)
    batcher = Batcher(x, y, 5, stream)
    horizons = Horizons([batcher], left)
    rows = Batcher(x, y, 5, np.random.default_rng(seed))
    dtype = np.min_scalar_type(size - 1)
    assert dtype.kind == "u"
    for k in range(left):
        got = horizons.rows(np.array([0]), np.array([k]))
        assert got.dtype == dtype and got.shape == (1, 5)
        assert np.array_equal(got[0], rows.next_indices())
    assert batcher.draws == -(-left // Batcher._PREFETCH)
    # Only a seeded stream can be rebuilt, so only it is dropped.
    assert (batcher._rng is None) == seeded
    for _ in range(past):
        assert np.array_equal(batcher.take(1)[0], rows.next_indices())
    assert batcher.draws == -(-left // Batcher._PREFETCH) + past


@st.composite
def level_plans(draw):
    """Workers, a horizon either side of ``_PREFETCH``, and the levels
    that ask for every batch of some workers: each level takes the next
    one to three batches of a few workers, rows in any order (a PS level
    can hold two iterations of one worker, even across a window)."""
    workers = draw(st.integers(1, 5))
    horizon = draw(st.sampled_from([1, 4, 31, 32, 33, 40, 64, 65, 70]))
    asked = draw(st.lists(st.booleans(), min_size=workers, max_size=workers))
    ahead = [0] * workers
    levels = []
    while any(a and k < horizon for a, k in zip(asked, ahead)):
        level = []
        for wid in range(workers):
            if not asked[wid] or ahead[wid] == horizon:
                continue
            take = draw(st.integers(0, 3))
            for _ in range(min(take, horizon - ahead[wid])):
                level.append((wid, ahead[wid]))
                ahead[wid] += 1
        if level:
            levels.append(draw(st.permutations(level)))
    return workers, horizon, asked, levels


@settings(max_examples=80, deadline=None)
@given(level_plans(), st.integers(0, 2**32 - 1))
def test_a_levels_gathered_rows_are_horizon_rows(plan, seed):
    """Levels gathered by ``(wid, k)`` in one fancy index each are the
    rows a per-worker :class:`~oracles.horizon.Horizon` returns row for
    row, with its ``integers()`` calls and its released stream; a
    worker no level asks for draws nothing."""
    workers, horizon, asked, levels = plan
    x, y = np.zeros((300, 1)), np.zeros(300)
    batchers = [Batcher(x, y, 3, seed + wid) for wid in range(workers)]
    twins = [Batcher(x, y, 3, seed + wid) for wid in range(workers)]
    oracles = [Horizon(twin, horizon) for twin in twins]
    expected = [
        [oracle.next_indices() for _ in range(horizon)] if on else []
        for oracle, on in zip(oracles, asked)
    ]
    horizons = Horizons(batchers, horizon)
    for level in levels:
        wids, ks = (np.array(column) for column in zip(*level))
        got = horizons.rows(wids, ks)
        assert got.dtype == np.uint16 and got.shape == (len(level), 3)
        for row, wid, k in zip(got, wids.tolist(), ks.tolist()):
            assert np.array_equal(row, expected[wid][k])
    for batcher, twin, on in zip(batchers, twins, asked):
        assert batcher.draws == twin.draws and (twin.draws > 0) == on
        assert batcher._rng is None and batcher._rows == twin._rows


# ----------------------------------------------------------------------
# Ticket lifecycle
# ----------------------------------------------------------------------
@pytest.fixture
def world():
    rng = np.random.default_rng(11)
    x, y = make_data(rng, 120, 16, signed=False)
    models = make_models(rng, 4, 16)
    batchers = [
        Batcher(x, y, 8, np.random.default_rng(100 + i)) for i in range(4)
    ]
    twins = [
        Batcher(x, y, 8, np.random.default_rng(100 + i)) for i in range(4)
    ]
    return ComputePool(models), models, batchers, twins


def eager(model, twin):
    """What the removed call site computed at this point."""
    clone = build_svm(np.random.default_rng(0), model.dim - 1)
    clone.set_params(model.get_params())
    loss, grad = clone.loss_and_grad(*twin.next_batch())
    return loss, grad.tobytes()


def test_a_model_has_at_most_one_open_ticket(world):
    pool, models, batchers, _ = world
    ticket = pool.submit(models[2], batchers[2])
    with pytest.raises(RuntimeError, match="worker 2 already has an open"):
        pool.submit(models[2], batchers[2])
    ticket.result()
    pool.submit(models[2], batchers[2])  # evaluated: the next may open


@pytest.mark.parametrize(
    "write",
    [
        lambda model: model.set_params(np.zeros(model.dim)),
        lambda model: model.astype(np.float32),
        lambda model: model.loss_and_grad(np.zeros((2, 16)), np.ones(2)),
    ],
    ids=["set_params", "astype", "loss_and_grad"],
)
def test_writing_a_model_resolves_its_open_ticket_first(world, write):
    pool, models, batchers, twins = world
    tickets = [pool.submit(m, b) for m, b in zip(models[:2], batchers)]
    expected = [eager(m, t) for m, t in zip(models[:2], twins)]
    write(models[0])
    assert pool.flushes == 1 and models[0]._ticket is None
    # Both tickets saw the parameters they were submitted with.
    assert [t._outcome[0] for t in tickets] == [e[0] for e in expected]
    assert tickets[1].result()[1].tobytes() == expected[1][1]
    assert pool.flushes == 1


def test_set_params_after_evaluation_does_not_flush(world):
    pool, models, batchers, _ = world
    pool.submit(models[0], batchers[0]).result()
    pool.submit(models[1], batchers[1])
    models[0].set_params(np.zeros(models[0].dim))
    assert pool.flushes == 1 and models[1]._ticket is not None


def test_a_ticket_nobody_consumes_affects_no_other_ticket(world):
    pool, models, batchers, twins = world
    abandoned = pool.submit(models[0], batchers[0])  # crashed mid-compute
    kept = pool.submit(models[1], batchers[1])
    expected = eager(models[1], twins[1])
    loss, grad = kept.result()
    assert (loss, grad.tobytes()) == expected
    assert abandoned._outcome is not None and models[0]._ticket is None
    # The restarted worker re-syncs and computes again on the same model.
    twins[0].next_batch()
    models[0].set_params(models[1].get_params())
    expected = eager(models[0], twins[0])
    loss, grad = pool.submit(models[0], batchers[0]).result()
    assert (loss, grad.tobytes()) == expected


def test_a_failed_flush_leaves_unevaluated_tickets_pending(world):
    pool, models, batchers, twins = world
    per_ticket = mlp(np.random.default_rng(0), 16)
    bad = Batcher(batchers[0].x[:, :3], batchers[0].y, 8, np.random.default_rng(0))
    pool._models = [per_ticket, *models]
    first = pool.submit(per_ticket, bad)
    later = pool.submit(models[0], batchers[0])
    expected = eager(models[0], twins[0])
    with pytest.raises(ComputeError, match=r"^worker 0: ValueError: Dense"):
        later.result()
    assert models[0]._ticket is later  # still open, still guarded
    loss, grad = later.result()
    assert (loss, grad.tobytes()) == expected
    with pytest.raises(ComputeError, match="worker 0"):
        first.result()


def test_stacked_kernel_runs_clean_under_the_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    rng = np.random.default_rng(9)
    x, y = make_data(rng, 100, 32, signed=True)
    idx = rng.integers(0, len(x), size=(20, 32))
    models = make_models(rng, 20, 32)
    assert all(not m._flat.flags.writeable for m in models)
    assert all(m.stacked_kernel is not None for m in models)
    expected = loop_oracle(models, x, y, idx)
    assert mismatches(stacked_through_pool(models, x, y, idx), expected) == []
    assert all(not m._flat.flags.writeable for m in models)


def test_a_stub_ticket_is_a_zero_gradient_with_no_draw_and_no_arithmetic(world):
    pool, models, batchers, _ = world
    pool.stub(3)
    state = batchers[3]._rng.bit_generator.state
    for _ in range(3):
        loss, grad = pool.submit(models[3], batchers[3]).result()
        assert loss == 0.0 and not grad.any() and not grad.flags.writeable
        assert grad.shape == (models[3].dim,)
        assert grad.dtype == models[3].get_params().dtype
    assert batchers[3]._rng.bit_generator.state == state
    assert batchers[3].draws == 0 and models[3]._ticket is None
    pool.submit(models[0], batchers[0]).result()  # the others are real
    assert (pool.tickets, pool.flushes, pool.stacked, pool.fallback) == (
        4, 1, 1, 0
    )


# ----------------------------------------------------------------------
# Whole runs: the deferral oracle, the counters, every call site
# ----------------------------------------------------------------------
class EagerPool(ComputePool):
    """The removed call sites: draw, evaluate per model, at submit."""

    def submit(self, model, batcher):
        self.tickets += 1
        xb, yb = batcher.next_batch()
        ticket = Ticket(self, model, None, None, None)
        ticket._outcome = model.loss_and_grad(xb, yb)
        return ticket


def spec_for(protocol, workload, n=16, max_iter=5, **fields):
    topology = bipartite_ring(n) if protocol in BIPARTITE_PROTOCOLS else ring_based(n)
    if protocol == "ps-ssp":
        fields.setdefault("ps_staleness", 2)
    return ExperimentSpec(
        name=f"seam/{protocol}",
        workload=workload,
        topology=topology,
        protocol=protocol,
        max_iter=max_iter,
        **fields,
    )


def run_with_pool(spec, eager_plane=False):
    """Run ``spec``; ``eager_plane`` keeps a replayable run's math (hop,
    NOTIFY-ACK, the parameter server) in the loop, where it goes
    through tickets."""
    cluster = build_cluster(spec)
    cluster._eager = eager_plane
    run = cluster.run()
    return run, cluster.runtime.compute


@pytest.fixture
def eager_runtime(monkeypatch):
    def install():
        eager_pool = cached_property(lambda self: EagerPool(self.models))
        eager_pool.__set_name__(ProtocolRuntime, "compute")
        monkeypatch.setattr(ProtocolRuntime, "compute", eager_pool)

    return install


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("scenario", [None, RANDOM_6X], ids=["static", "random6x"])
def test_deferred_runs_equal_eager_runs_bitwise(protocol, scenario, eager_runtime):
    workload = svm_workload("smoke")
    spec = spec_for(protocol, workload, seed=3, scenario=scenario)
    deferred, pool = run_with_pool(spec, eager_plane=True)
    assert pool.fallback == 0 and pool.stacked == pool.tickets > 0
    eager_runtime()
    eager_run, eager_pool = run_with_pool(spec, eager_plane=True)
    assert type(eager_pool) is EagerPool and eager_pool.flushes == 0
    assert eager_pool.tickets == pool.tickets
    assert golden_fingerprint(deferred) == golden_fingerprint(eager_run)
    assert deferred.final_params.tobytes() == eager_run.final_params.tobytes()
    assert deferred.ledger.table().tobytes() == eager_run.ledger.table().tobytes()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_protocol_batches_its_pending_workers(protocol):
    """A static 16-worker run resolves more than one ticket per flush:
    no call site submits and resolves in one breath (hop, notify_ack and
    the PS modes on their eager plane, which their churn and compressed
    runs take)."""
    run, pool = run_with_pool(
        spec_for(protocol, svm_workload("smoke")), eager_plane=True
    )
    assert run.iterations_completed == [5] * 16
    assert pool.tickets == 16 * 5
    assert pool.stacked == pool.tickets and pool.fallback == 0
    assert pool.mean_batch > 1.0, pool


def test_static_hop_64_replays_the_whole_cluster_once_per_iteration():
    # The noise-free guards scripts/ci.sh carries, as tier-1 tests: a
    # replayed hop run sends nothing through the pool and evaluates one
    # block of every worker per iteration ...
    run, pool = run_with_pool(
        spec_for("hop", svm_workload("smoke"), n=64, max_iter=10)
    )
    assert (pool.tickets, pool.flushes, pool.levels, pool.rows) == (
        0, 0, 10, 640
    )
    assert (pool.stacked, pool.fallback) == (0, 0)


def test_ps_async_128_keeps_its_exact_pool_counts():
    # ... a replayed PS run sends nothing through the pool either: its
    # levels follow the server's versions, which the NIC staggers ...
    run, pool = run_with_pool(
        spec_for(
            "ps-async", svm_workload("smoke"), n=128, max_iter=10, seed=0
        )
    )
    assert (pool.tickets, pool.flushes, pool.stacked, pool.fallback) == (
        0, 0, 0, 0
    )
    assert (pool.levels, pool.rows) == (15, 1280)


def test_adpsgd_16_keeps_its_exact_pool_counts():
    # ... and a protocol that still submits tickets holds its own exact
    # counts, all stacked.
    run, pool = run_with_pool(
        spec_for("adpsgd", svm_workload("smoke"), n=16, max_iter=10, seed=0)
    )
    assert (pool.tickets, pool.flushes, pool.stacked, pool.fallback) == (
        160, 12, 160, 0
    )
    assert (pool.levels, pool.rows) == (0, 0)


def test_cnn_tickets_take_the_kernel_of_record():
    run, pool = run_with_pool(
        spec_for("hop", cnn_workload("smoke"), n=4, max_iter=3)
    )
    assert (pool.tickets, pool.stacked, pool.fallback) == (12, 0, 12)
    assert pool.mean_batch > 1.0


def test_counters_stay_out_of_results():
    run, pool = run_with_pool(spec_for("hop", svm_workload("smoke"), n=4))
    assert pool.rows == 20
    names = {
        "compute", "tickets", "flushes", "stacked", "fallback", "levels", "rows"
    }
    assert not names & {f.name for f in dataclasses.fields(TrainingRun)}
    assert not names & set(run_to_dict(run))
    assert not names & set(golden_fingerprint(run))
