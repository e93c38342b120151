#!/usr/bin/env python
"""Profile the simulator's hot path (thin wrapper over ``repro profile``).

Runs one training configuration under cProfile, prints the hot-function
table plus real-time throughput, and finishes with the bare-engine
events/sec microbenchmark.  The same functionality is available as
``python -m repro profile``; this script exists so perf work has a
stable, greppable entry point next to the other perf tooling
(``bench/run.py``, the repo benchmark).

Usage::

    PYTHONPATH=src python scripts/profile_sim.py [repro profile args...]

    # e.g. the 64-worker scaling cell, sorted by own-time:
    PYTHONPATH=src python scripts/profile_sim.py --workers 64 --sort tottime
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["profile", *sys.argv[1:]]))
