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

from typing import Optional, Tuple

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
    """Random minibatch sampler bound to one worker's RNG stream."""

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int,
        rng: np.random.Generator,
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
        self._rng = rng
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
        self.draws += 1
        return self._rng.integers(0, len(self.x), size=(rows, self.batch_size))

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


class Horizon:
    """A worker's next ``left`` batches on ``batcher``, for a caller that
    knows how many it will draw (a replay: ``max_iter`` per worker).

    :meth:`next_indices` returns the batcher's rows in order, drawn
    through :meth:`Batcher.take` in blocks of at most ``_PREFETCH`` of
    the horizon: one ``integers()`` call per block, where an
    open-ended batcher refills 1, 2, 4, ... rows.  Past the horizon it
    draws a row at a time.
    """

    __slots__ = ("batcher", "x", "y", "batch_size", "left", "_block", "_cursor")

    def __init__(self, batcher: Batcher, left: int) -> None:
        self.batcher = batcher
        self.x = batcher.x
        self.y = batcher.y
        self.batch_size = batcher.batch_size
        self.left = left
        self._block: Optional[np.ndarray] = None
        self._cursor = 0

    def next_indices(self) -> np.ndarray:
        block = self._block
        if block is None or self._cursor >= len(block):
            rows = max(1, min(Batcher._PREFETCH, self.left))
            block = self._block = self.batcher.take(rows)
            self.left -= rows
            self._cursor = 0
        idx = block[self._cursor]
        self._cursor += 1
        return idx

