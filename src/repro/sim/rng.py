"""Named, seeded random-number streams.

Every stochastic component of an experiment (per-worker data sampling,
per-worker slowdown draws, initialization, ...) pulls its own stream
from a :class:`RngStreams` registry.  Streams are derived from the
master seed and a stable string key, so:

* runs with the same seed are bit-for-bit reproducible, and
* changing one component's draws (e.g. adding a slowdown model) never
  perturbs any other component's stream.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master_seed: int, key: str) -> int:
    """Derive a stable 64-bit child seed from ``(master_seed, key)``."""
    digest = hashlib.sha256(f"{master_seed}/{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStreams:
    """A registry of independent, reproducible RNG streams.

    Args:
        seed: Master seed for the whole experiment.

    Example::

        streams = RngStreams(seed=7)
        data_rng = streams.fresh("worker", 3, "data")
        slow_rng = streams.fresh("worker", 3, "slowdown")
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def key(self, *parts: object) -> str:
        """Join stream-name parts into the canonical key string."""
        return "/".join(str(part) for part in parts)

    def seed_of(self, *parts: object) -> int:
        """The child seed of the stream named by ``parts``:
        ``np.random.default_rng(seed_of(*parts))`` is that stream, for
        an owner that builds it when it first draws."""
        return derive_seed(self.seed, self.key(*parts))

    def fresh(self, *parts: object) -> np.random.Generator:
        """Return a *new* generator for ``parts``: every call starts the
        stream over, so a component that takes one per run replays its
        own draws."""
        return np.random.default_rng(self.seed_of(*parts))

    def spawn(self, *parts: object) -> "RngStreams":
        """Create a child registry rooted at a namespaced seed."""
        return RngStreams(derive_seed(self.seed, self.key(*parts)))

    def __repr__(self) -> str:
        return f"<RngStreams seed={self.seed}>"
