"""Synthetic datasets standing in for CIFAR-10 and webspam.

The offline environment has no dataset downloads, so we generate
synthetic data with the same *roles*:

* :class:`SyntheticImages` — class-conditional image distribution for
  the CNN workload (CIFAR-10 stand-in).  Each class has a random
  spatial template; samples are template + Gaussian noise, so the task
  is learnable but non-trivial at practical noise levels.
* :class:`SyntheticWebspam` — high-dimensional sparse-ish binary
  classification for the SVM workload (webspam stand-in), generated
  from a ground-truth hyperplane with label noise.

Each worker samples minibatches from its own RNG stream via
:class:`Batcher`, mirroring the paper's random sampling per worker.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np


class Dataset:
    """In-memory dataset with train/test splits."""

    def __init__(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_test: np.ndarray,
        y_test: np.ndarray,
        name: str,
    ) -> None:
        if len(x_train) != len(y_train) or len(x_test) != len(y_test):
            raise ValueError("features and labels must have equal lengths")
        self.x_train = x_train
        self.y_train = y_train
        self.x_test = x_test
        self.y_test = y_test
        self.name = name

    @property
    def n_train(self) -> int:
        return len(self.x_train)

    @property
    def n_test(self) -> int:
        return len(self.x_test)

    def __repr__(self) -> str:
        return (
            f"<Dataset {self.name!r} train={self.n_train} test={self.n_test} "
            f"x_shape={self.x_train.shape[1:]}>"
        )


def synthetic_images(
    rng: np.random.Generator,
    n_train: int = 2048,
    n_test: int = 512,
    image_size: int = 8,
    channels: int = 3,
    n_classes: int = 10,
    noise: float = 0.6,
) -> Dataset:
    """Class-conditional image dataset (CIFAR-10 stand-in).

    Each class gets a smooth random template; a sample is its class
    template plus i.i.d. Gaussian pixel noise.  ``noise`` around 0.5-0.8
    makes single-sample classification imperfect, so SGD has real work.
    """
    templates = rng.normal(
        0.0, 1.0, size=(n_classes, channels, image_size, image_size)
    )
    # Smooth templates spatially so convolutions have local structure.
    for axis in (2, 3):
        templates = (
            templates + np.roll(templates, 1, axis=axis) + np.roll(
                templates, -1, axis=axis
            )
        ) / 3.0

    def make_split(n: int) -> Tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, n_classes, size=n)
        samples = templates[labels] + noise * rng.normal(
            0.0, 1.0, size=(n, channels, image_size, image_size)
        )
        return samples, labels

    x_train, y_train = make_split(n_train)
    x_test, y_test = make_split(n_test)
    return Dataset(x_train, y_train, x_test, y_test, name="synthetic_images")


def synthetic_webspam(
    rng: np.random.Generator,
    n_train: int = 4096,
    n_test: int = 1024,
    n_features: int = 128,
    density: float = 0.25,
    label_noise: float = 0.05,
) -> Dataset:
    """Sparse-ish linear binary classification (webspam stand-in).

    Features are mostly zero (density controls the active fraction,
    like bag-of-words spam features); labels come from a ground-truth
    hyperplane with ``label_noise`` flip probability.
    """
    w_true = rng.normal(0.0, 1.0, size=n_features)

    def make_split(n: int) -> Tuple[np.ndarray, np.ndarray]:
        x = rng.normal(0.0, 1.0, size=(n, n_features))
        mask = rng.random((n, n_features)) < density
        x = x * mask
        margins = x @ w_true
        labels = (margins > 0).astype(int)
        flips = rng.random(n) < label_noise
        labels[flips] = 1 - labels[flips]
        return x, labels

    x_train, y_train = make_split(n_train)
    x_test, y_test = make_split(n_test)
    return Dataset(x_train, y_train, x_test, y_test, name="synthetic_webspam")


class Batcher:
    """Random minibatch sampler bound to one worker's RNG stream.

    ``rng`` is the stream, or the seed it is built from at the first
    draw: ``np.random.default_rng(seed)`` is the stream a
    :class:`~repro.sim.rng.RngStreams` key names, so a worker whose
    batches are drawn only after the simulation holds no stream until
    then.  A seeded batcher may also :meth:`release` its stream and
    rebuild it where it stood.  Either way it draws from one stream.
    """

    __slots__ = ("x", "y", "batch_size", "_seed", "_rng", "_rows",
                 "_block", "_cursor", "draws")

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int,
        rng: Union[np.random.Generator, int],
    ) -> None:
        if len(x) != len(y):
            raise ValueError("features and labels must have equal lengths")
        if batch_size < 1 or batch_size > len(x):
            raise ValueError(
                f"batch_size {batch_size} out of range for {len(x)} samples"
            )
        self.x = x
        self.y = y
        self.batch_size = int(batch_size)
        if isinstance(rng, np.random.Generator):
            self._seed, self._rng = None, rng
        else:
            self._seed, self._rng = int(rng), None
        #: Index rows drawn from the stream so far.
        self._rows = 0
        # Index rows prefetched in blocks of 1, 2, 4, ... up to
        # _PREFETCH rows: one integers() call per _PREFETCH batches on
        # a long run, and a short one never fetches twice what it has
        # drawn (a 4-iteration run at 1024 workers neither draws nor
        # holds 32 rows per worker).  A (k, batch) block draw consumes
        # the Generator stream exactly like k sequential (batch,) draws
        # (values and post-draw state are identical), so batches do not
        # depend on the block sizes — this only amortizes the call.
        self._block: Optional[np.ndarray] = None
        self._cursor = 0
        #: ``integers()`` calls made on the stream so far.
        self.draws = 0

    _PREFETCH = 32

    def _draw(self, rows: int) -> np.ndarray:
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.default_rng(self._seed)
            if self._rows:
                # Back to where a released stream stood: one block draw
                # leaves the state that the rows' own draws left.
                rng.integers(
                    0, len(self.x), size=(self._rows, self.batch_size)
                )
        self.draws += 1
        self._rows += rows
        return rng.integers(0, len(self.x), size=(rows, self.batch_size))

    def release(self) -> None:
        """Drop a seeded batcher's stream until its next draw, which
        rebuilds it at the rows drawn so far (one ``integers()`` call
        that :attr:`draws` does not count).  A batcher handed a
        ``Generator`` keeps it."""
        if self._seed is not None:
            self._rng = None

    def next_indices(self) -> np.ndarray:
        """Row indices of the next batch, uniform with replacement (the
        paper's SGD model).

        The row is a view of the prefetched block; it is never written.
        """
        block = self._block
        if block is None or self._cursor >= len(block):
            rows = 1 if block is None else min(self._PREFETCH, 2 * len(block))
            block = self._block = self._draw(rows)
            self._cursor = 0
        idx = block[self._cursor]
        self._cursor += 1
        return idx

    def take(self, k: int) -> np.ndarray:
        """The next ``k`` batches' row indices as a ``(k, batch)`` block:
        exactly the rows ``k`` :meth:`next_indices` calls return.  Rows
        left in the prefetched block come first; the rest is one
        ``integers()`` call.  Never written, like a row."""
        block, cursor = self._block, self._cursor
        if block is None or cursor >= len(block):
            return self._draw(k)
        held = block[cursor : cursor + k]
        self._cursor = cursor + len(held)
        if len(held) == k:
            return held
        return np.concatenate([held, self._draw(k - len(held))])

    def next_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """The next batch's rows, gathered: ``(x[idx], y[idx])``."""
        idx = self.next_indices()
        return self.x[idx], self.y[idx]

    def __repr__(self) -> str:
        return f"<Batcher n={len(self.x)} batch={self.batch_size}>"


class Horizons:
    """Every worker's next ``horizon`` batches, for a caller that knows
    how many each worker draws and asks for them by ``(wid, k)`` (a
    replay: ``max_iter`` per worker, in any order across workers).

    Worker ``wid``'s batch ``k`` lies in window ``k // width``, where
    ``width`` is ``_PREFETCH`` rows or the horizon if shorter.  A window
    is one :meth:`Batcher.take` of its rows, drawn the first time a row
    in it is asked for, after every earlier window of that worker: the
    rows and ``integers()`` calls of a worker drawing its horizon in
    ``_PREFETCH`` blocks.  The window that reaches the horizon releases
    the batcher's stream (:meth:`Batcher.release`).  A worker whose
    rows nobody asks for draws nothing.  Each worker holds one window,
    in the smallest unsigned dtype that holds ``len(x) - 1`` (the same
    values).
    """

    __slots__ = ("batchers", "x", "y", "batch_size", "horizon", "_width",
                 "_block", "_window")

    def __init__(self, batchers: Sequence[Batcher], horizon: int) -> None:
        first = batchers[0]
        self.batchers = batchers
        self.x, self.y, self.batch_size = first.x, first.y, first.batch_size
        self.horizon = horizon
        self._width = max(1, min(Batcher._PREFETCH, horizon))
        #: ``(workers, width, batch)``: each worker's window, allocated
        #: at the first draw.
        self._block: Optional[np.ndarray] = None
        #: The window each worker holds (-1: none yet).
        self._window = np.full(len(batchers), -1, dtype=np.intp)

    def rows(self, wids: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Batch ``ks[r]`` of worker ``wids[r]`` for every ``r``: a
        ``(len(wids), batch)`` block, never written.  A worker's ``ks``
        never go back to a window it has left (``k < horizon``)."""
        windows, slots = np.divmod(ks, self._width)
        behind = windows != self._window[wids]
        if not behind.any():
            return self._block[wids, slots]
        dtype = np.min_scalar_type(max(len(self.x) - 1, 0))
        if self._block is None:
            self._block = np.empty(
                (len(self.batchers), self._width, self.batch_size), dtype
            )
        out = np.empty((len(wids), self.batch_size), dtype)
        held = ~behind
        out[held] = self._block[wids[held], slots[held]]
        # Rows of a window a worker has not reached yet, window by
        # window (a call may span two windows of one worker).
        pending = np.flatnonzero(behind)
        while pending.size:
            wanted = windows[pending]
            first = wanted == wanted.min()
            rows = pending[first]
            for wid, window in zip(
                wids[rows].tolist(), wanted[first].tolist()
            ):
                while self._window[wid] < window:
                    self._advance(wid)
            out[rows] = self._block[wids[rows], slots[rows]]
            pending = pending[~first]
        return out

    def _advance(self, wid: int) -> None:
        """Draw worker ``wid``'s next window over the one it holds."""
        window = int(self._window[wid]) + 1
        first = window * self._width
        rows = min(self._width, self.horizon - first)
        batcher = self.batchers[wid]
        self._block[wid, :rows] = batcher.take(rows)
        if first + rows >= self.horizon:
            batcher.release()
        self._window[wid] = window
