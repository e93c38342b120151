"""The ledger's gap derivation against the trackers it replaced.

:class:`~repro.core.gap.ObservedGaps` reads a run's gaps off its
transitions after the run.  Two removed implementations are its
oracles: ``GapTracker`` (``tests/oracles/gap.py``, a running minimum and
a log, called at every transition while the run simulated) and, before
it, ``DenseGapTracker`` below (an n x n matrix updated by a full-row
pass on every transition).  Every query of all three must agree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.gap import GapTracker, replay

from repro.core.gap import ObservedGaps
from repro.sim.trace import DEPARTED


class DenseGapTracker:
    """The removed tracker: ``max_gap[i, j]`` maintained eagerly."""

    def __init__(self, n_workers):
        self.n = n_workers
        self.iterations = np.zeros(n_workers, dtype=np.int64)
        self.max_gap = np.zeros((n_workers, n_workers), dtype=float)
        self.transitions = 0

    def deactivate(self, worker):
        self.iterations[worker] = DEPARTED

    def activate(self, worker, iteration=0):
        self.iterations[worker] = iteration

    def record(self, worker, iteration):
        self.iterations[worker] = iteration
        self.transitions += 1
        row = iteration - self.iterations
        self.max_gap[worker, :] = np.maximum(self.max_gap[worker, :], row)

    def record_many(self, iteration, workers=None):
        workers = range(self.n) if workers is None else list(workers)
        for worker in workers:
            self.iterations[worker] = iteration
        self.transitions += len(workers)
        for worker in workers:
            row = self.iterations[worker] - self.iterations
            self.max_gap[worker, :] = np.maximum(self.max_gap[worker, :], row)

    def observed_gap(self, i, j):
        return float(self.max_gap[i, j])

    def max_observed(self):
        return float(self.max_gap.max())

    def violations(self, bounds):
        out = {}
        for i in range(self.n):
            for j in range(self.n):
                if i != j and self.max_gap[i, j] > bounds[i, j] + 1e-9:
                    out[(i, j)] = float(self.max_gap[i, j] - bounds[i, j])
        return out


def burst(n, first, rounds, skew):
    """``rounds`` passes of every worker, ``worker % skew`` iterations apart."""
    return [
        ("record", worker, first + k + worker % skew)
        for k in range(rounds)
        for worker in range(n)
    ]


class Transitions:
    """The calls of a script as a ledger lists them: an entry per
    ``record`` (a stamp each), the entries of one ``record_many`` at one
    shared stamp, a move per ``activate`` / ``deactivate``."""

    def __init__(self, n):
        self.n = n
        self.columns = ([], [], [], [])
        self.stamp = 0

    def add(self, name, *args):
        if name == "record":
            self._append(*args, True)
        elif name == "record_many":
            iteration, workers = args
            workers = range(self.n) if workers is None else list(workers)
            for worker in workers:
                self._append(worker, iteration, True, next_stamp=False)
            self.stamp += 1
        elif name == "activate":
            self._append(*args, False)
        else:
            self._append(args[0], DEPARTED, False)

    def _append(self, worker, iteration, entered, next_stamp=True):
        for column, value in zip(
            self.columns, (self.stamp, worker, iteration, entered)
        ):
            column.append(value)
        self.stamp += next_stamp

    def gaps(self):
        return ObservedGaps(self.n, *self.columns)


def assert_same_answers(tracker, dense, bounds, derived=None):
    n = dense.n
    assert tracker.max_observed() == dense.max_observed()
    assert tracker.transitions == dense.transitions
    assert list(tracker.iterations) == dense.iterations.tolist()
    for i in range(n):
        for j in range(n):
            assert tracker.observed_gap(i, j) == dense.observed_gap(i, j)
    found = tracker.violations(bounds)
    assert found == dense.violations(bounds)
    assert list(found) == list(dense.violations(bounds))  # same order
    if derived is not None:
        assert derived.max_observed() == dense.max_observed()
        for i in range(n):
            for j in range(n):
                assert derived.observed_gap(i, j) == dense.observed_gap(i, j)
        assert list(derived.violations(bounds).items()) == list(found.items())


@st.composite
def tracker_scripts(draw):
    """``(n, bounds, ops)``; an op is a call, a ``burst`` of calls or a
    ``query`` checkpoint.

    A burst is up to 30 rounds of every worker recording in turn, which
    on at most 12 workers outgrows the pending log's ``n * n`` cap, so
    checkpoints land both between forced folds and right after one.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    worker = st.integers(min_value=0, max_value=n - 1)
    iteration = st.integers(min_value=0, max_value=40)
    op = st.one_of(
        st.tuples(st.just("record"), worker, iteration),
        st.tuples(
            st.just("record_many"),
            iteration,
            st.one_of(st.none(), st.lists(worker, max_size=n)),
        ),
        st.tuples(st.just("activate"), worker, iteration),
        st.tuples(st.just("deactivate"), worker),
        st.tuples(
            st.just("burst"),
            iteration,
            st.integers(min_value=1, max_value=30),
            st.integers(min_value=1, max_value=4),
        ),
        st.tuples(st.just("query")),
    )
    ops = draw(st.lists(op, max_size=30))
    bounds = np.array(
        draw(
            st.lists(
                st.lists(
                    st.sampled_from([0.0, 1.0, 3.0, 10.0, np.inf]),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    return n, bounds, ops


class TestAgainstTheDenseTracker:
    @given(script=tracker_scripts())
    @settings(max_examples=200, deadline=None)
    def test_every_query_matches(self, script):
        n, bounds, ops = script
        tracker, dense = GapTracker(n), DenseGapTracker(n)
        transitions = Transitions(n)
        calls = []
        for op in ops:
            calls += burst(n, *op[1:]) if op[0] == "burst" else [op]
        for name, *args in calls:
            if name == "query":
                assert_same_answers(
                    tracker, dense, bounds, transitions.gaps()
                )
                continue
            getattr(tracker, name)(*args)
            getattr(dense, name)(*args)
            transitions.add(name, *args)
            assert tracker.max_observed() == dense.max_observed()
        assert_same_answers(tracker, dense, bounds, transitions.gaps())

    def test_a_long_run_folds_without_being_asked(self):
        """Past ``n * n`` pending transitions the log is folded, so it
        never outgrows the matrix it stands in for."""
        n = 4
        tracker, dense = GapTracker(n), DenseGapTracker(n)
        assert tracker._pairs is None
        for k in range(1, 12):
            for worker in range(n):
                tracker.record(worker, k + worker % 2)
                dense.record(worker, k + worker % 2)
                assert len(tracker._log_worker) <= n * n
        assert tracker._pairs is not None
        assert len(tracker._log_worker) > 0  # a query between folds
        assert_same_answers(tracker, dense, np.ones((n, n)))

    def test_departed_worker_never_sets_the_minimum(self):
        tracker, transitions = GapTracker(3), Transitions(3)
        alone = [("deactivate", 0), ("deactivate", 1), ("record", 2, 7)]
        rejoined = [("activate", 0, 5), ("record", 2, 8)]
        for name, *args in alone:
            getattr(tracker, name)(*args)
            transitions.add(name, *args)
        assert tracker.max_observed() == 0.0  # alone: no live pair
        assert transitions.gaps().max_observed() == 0.0
        for name, *args in rejoined:
            getattr(tracker, name)(*args)
            transitions.add(name, *args)
        for gaps in (tracker, transitions.gaps()):
            assert gaps.max_observed() == 3.0
            assert gaps.observed_gap(2, 0) == 3.0
            assert gaps.observed_gap(2, 1) == 0.0


@st.composite
def rising_runs(draw):
    """``(n, columns)``: transitions whose counters only rise and that
    no membership move interrupts, the runs the derivation's one sweep
    answers.  A step is one worker's entry, or a lockstep group's: the
    group's members enter one iteration at one shared stamp."""
    n = draw(st.integers(min_value=1, max_value=8))
    worker = st.integers(min_value=0, max_value=n - 1)
    current = [0] * n
    columns = ([], [], [])
    for stamp in range(draw(st.integers(min_value=0, max_value=40))):
        if draw(st.booleans()):
            members = [draw(worker)]
        else:
            members = draw(st.lists(worker, min_size=1, unique=True))
        k = max(current[m] for m in members) + draw(
            st.integers(min_value=0, max_value=3)
        )
        for member in members:
            current[member] = k
            for column, value in zip(columns, (stamp, member, k)):
                column.append(value)
    return n, (*columns, [True] * len(columns[0]))


class TestTheSweep:
    @given(run=rising_runs())
    @settings(max_examples=300, deadline=None)
    def test_the_sweep_is_the_trackers_minimum(self, run):
        n, columns = run
        derived = ObservedGaps(n, *columns)
        tracker = replay(n, *columns)
        assert derived.max_observed() == tracker.max_observed()
        assert np.array_equal(derived._fold(), tracker._fold())

    def test_one_stamp_per_worker_reads_the_des_order_gap(self):
        """Three workers entering iteration 1 at one instant, one after
        another: the first to move sees the others one behind.  One
        shared stamp (a lockstep round) moves them together."""
        one_by_one = ObservedGaps(3, [0, 1, 2], [0, 1, 2], [1, 1, 1], [True] * 3)
        together = ObservedGaps(3, [0, 0, 0], [0, 1, 2], [1, 1, 1], [True] * 3)
        assert one_by_one.max_observed() == 1.0
        assert together.max_observed() == 0.0
        assert one_by_one.observed_gap(0, 2) == 1.0
        assert one_by_one.observed_gap(2, 0) == 0.0


class TestRecordMany:
    def test_accepts_an_iterator(self):
        """``workers`` used to be walked twice: an iterator was spent by
        the first loop, so nothing was counted and no gap recorded."""
        tracker = GapTracker(3)
        tracker.record_many(3, workers=iter([0, 1]))
        assert tracker.transitions == 2
        assert tracker.max_observed() == 3.0
        assert tracker.observed_gap(0, 2) == 3.0
        assert tracker.observed_gap(0, 1) == 0.0  # moved together

    def test_iterator_and_list_agree(self):
        from_list, from_iter = GapTracker(4), GapTracker(4)
        from_list.record_many(2, workers=[3, 1])
        from_iter.record_many(2, workers=(w for w in (3, 1)))
        assert from_iter.transitions == from_list.transitions == 2
        for i in range(4):
            for j in range(4):
                assert from_iter.observed_gap(i, j) == from_list.observed_gap(i, j)


class TestFootprint:
    def test_a_run_with_no_pair_query_allocates_no_n_by_n_array(self):
        """Topology + the gaps of 2048 workers over 3 iterations stay
        under 8 MB of traced allocations; an n x n float64 array is
        32 MB on its own."""
        import tracemalloc

        from repro.graphs import ring_based

        n = 2048
        tracemalloc.start()
        try:
            topology = ring_based(n)
            topology.validate()
            workers = np.tile(np.arange(n), 3)
            iterations = np.repeat(np.arange(1, 4), n)
            gaps = ObservedGaps(
                n, np.arange(3 * n), workers, iterations,
                np.ones(3 * n, dtype=bool),
            )
            assert gaps.max_observed() == 1.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "transitions=6144" in repr(gaps)
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
