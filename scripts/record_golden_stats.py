#!/usr/bin/env python
"""Record pinned-seed golden TrainingRun stats for the determinism gate.

Runs every registered protocol under every universal scenario family
(plus the churn, compressed and CNN cells) on a small cluster (see
:mod:`repro.harness.golden`) and writes the exactly-comparable run
stats (floats as IEEE-754 hex, parameter vectors as SHA-256 of their
raw bytes) to ``tests/scenarios/golden_stats.json``.

The recorded file is the bitwise-determinism contract for simulator
refactors: ``tests/scenarios/test_conformance_matrix.py`` replays every
cell and asserts equality, so a perf PR that changes event ordering or
floating-point accumulation order fails loudly instead of silently
shifting every figure.

Re-record (and review the diff!) only when a PR *intentionally* changes
simulation semantics::

    PYTHONPATH=src python scripts/record_golden_stats.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.harness.golden import (  # noqa: E402
    CHURN_CELLS,
    CNN_FAMILY,
    COMPRESSION_CELLS,
    ELASTIC_PROTOCOLS,
    churn_conformance_spec,
    cnn_conformance_spec,
    compression_conformance_spec,
    conformance_spec,
    golden_fingerprint,
)
from repro.harness.io import atomic_write_json  # noqa: E402
from repro.harness.spec import run_spec  # noqa: E402
from repro.protocols import registered_protocols  # noqa: E402
from repro.scenarios import registered_scenarios  # noqa: E402


def _cells():
    """Every golden cell as ``(key, spec)``, in recording order."""
    protocols = registered_protocols()
    for protocol in protocols:
        for family in registered_scenarios(universal_only=True):
            yield f"{protocol}/{family}", conformance_spec(protocol, family)
    # Churn cells: elastic protocols only (the membership-plane gate).
    for protocol in ELASTIC_PROTOCOLS:
        for family in sorted(CHURN_CELLS):
            yield (
                f"{protocol}/{family}",
                churn_conformance_spec(protocol, family),
            )
    # Compressed cells: the compression-plane gate (every protocol x
    # registered scheme, quiet scenario).
    for protocol in protocols:
        for scheme in sorted(COMPRESSION_CELLS):
            yield (
                f"{protocol}/compressed-{scheme}",
                compression_conformance_spec(protocol, scheme),
            )
    # CNN cells: the ml-kernel gate (every protocol, quiet scenario,
    # smoke CNN) -- the only cells that run a conv or pool kernel.
    for protocol in protocols:
        yield f"{protocol}/{CNN_FAMILY}", cnn_conformance_spec(protocol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=str(REPO / "tests" / "scenarios" / "golden_stats.json"),
    )
    parser.add_argument(
        "--only-missing",
        action="store_true",
        help="keep every cell already in the output file and record "
        "only cells it lacks (the additive mode for new protocols or "
        "families: existing recordings stay byte-identical)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing: replay every cell and fail (exit 1) unless "
        "each fingerprint is bitwise identical to the recorded file "
        "(the post-refactor drift check)",
    )
    args = parser.parse_args(argv)
    if args.check and args.only_missing:
        parser.error("--check and --only-missing are mutually exclusive")

    if args.check:
        recorded = json.loads(Path(args.output).read_text())["cells"]
        replayed, drifted = set(), []
        for key, spec in _cells():
            replayed.add(key)
            if recorded.get(key) != golden_fingerprint(run_spec(spec)):
                drifted.append(key)
                print(f"replayed {key}: MISMATCH")
            else:
                print(f"replayed {key}: ok")
        missing = sorted(set(recorded) - replayed)
        if drifted or missing:
            for key in drifted:
                print(f"DRIFT: {key}")
            for key in missing:
                print(f"STALE RECORDING (no longer replayed): {key}")
            return 1
        print(
            f"{len(replayed)} cells replayed, all bitwise identical to "
            f"{args.output}"
        )
        return 0

    existing = {}
    if args.only_missing:
        existing = json.loads(Path(args.output).read_text())["cells"]
    cells = {}
    for key, spec in _cells():
        if key in existing:
            cells[key] = existing[key]
            continue
        cells[key] = golden_fingerprint(run_spec(spec))
        print(f"recorded {key}")

    payload = {
        "comment": (
            "Pinned-seed golden TrainingRun stats (floats as IEEE-754 "
            "hex). Regenerate with scripts/record_golden_stats.py only "
            "for intentional semantic changes."
        ),
        "cells": cells,
    }
    atomic_write_json(args.output, payload, indent=1)
    print(f"{len(cells)} cells -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
