#!/usr/bin/env python3
"""Prove that the benchmark measures the program.

    python3 bench/selfcheck.py [--rounds 2] [--seconds 20]

Two slowdowns are injected into the program from the benchmark's child
process (``BENCH_INJECT``, see ``child.apply_injection``), and ``cell_ms``
must move where the slowed code runs and stay put where it does not:

* a busy-wait of 25% of its own duration after each ``Model.loss_and_grad``:
  ``cell_ms`` must rise by at least 15% on ``cnn-hetero`` (the workload that
  lives in ``repro.ml``: 0.25 x its ``span.ml_share`` of 0.8 predicts 20%) and
  by at most 12% on ``svm-scale`` (0.25 x 0.25 predicts 6%, and the wrapper
  itself adds about a microsecond to a 13 us SVM step);
* 5 ms of busy-wait before each ``RunJournal.append``: ``cell_ms`` must rise
  on ``service-warm`` (one journal line a cell) and stay within run-to-run
  noise on ``cnn-hetero`` (no journal).

A busy-wait slows the operation and not the probe, so this also shows that
probe normalisation does not cancel a real slowdown.  Base and slowed runs
alternate; the verdict compares their medians.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run

#: (injection, workload, lowest and highest accepted cell_ms ratio)
CASES = (
    ("ml_step:0.25", "cnn-hetero", 1.15, None),
    ("ml_step:0.25", "svm-scale", None, 1.12),
    ("journal:0.005", "service-warm", 1.5, None),
    ("journal:0.005", "cnn-hetero", 0.9, 1.1),
)


def cell_ms(workload: str, seconds: float, inject) -> float:
    _, result = run.run_child("run", workload, 1, seconds, inject=inject)
    if not result["correct"]:
        raise run.BenchError(f"{workload}: {result['problems']}")
    return result["cell_ms"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    run.probe.probe()

    samples = {}
    configs = sorted(
        {(w, None) for _, w, _, _ in CASES} | {(w, i) for i, w, _, _ in CASES},
        key=str,
    )
    for round_no in range(args.rounds):
        order = configs if round_no % 2 == 0 else configs[::-1]
        for workload, inject in order:
            value = cell_ms(workload, args.seconds, inject)
            samples.setdefault((workload, inject), []).append(value)
            print(f"round {round_no}  {workload:13s} "
                  f"{inject or 'base':14s} cell_ms {value:10.4f}", flush=True)

    print(f"\n{'injection':14s} {'workload':13s} {'base':>10s} "
          f"{'slowed':>10s} {'ratio':>7s}  accepted      verdict")
    failed = False
    for inject, workload, low, high in CASES:
        base = statistics.median(samples[(workload, None)])
        slowed = statistics.median(samples[(workload, inject)])
        ratio = slowed / base
        ok = (low is None or ratio >= low) and (high is None or ratio <= high)
        failed |= not ok
        accepted = f"[{low or '-'}, {high or '-'}]"
        print(f"{inject:14s} {workload:13s} {base:10.4f} {slowed:10.4f} "
              f"{ratio:7.3f}  {accepted:13s} {'ok' if ok else 'FAILED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.BenchError as error:
        print(f"selfcheck failed: {error}", file=sys.stderr)
        sys.exit(3)
