#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 bench/compare.py A.json B.json

Per workload and end-to-end metric: both medians, the ratio B/A (base: A),
each side's spread (distance between quartiles over the median, when a side
has at least four runs), and a verdict against the bound in BENCHMARK.json:

* ``within-bound``  B is not worse than A by more than the bound;
* ``regressed``     B is worse than A by more than the bound;
* ``unresolved``    the spread of either side is wider than the bound, so
                    the files cannot tell (unless every run of B reads
                    better than every run of A: ``improved``).

Per-layer metrics that both files hold are listed with their ratio; the
exact counts must be identical for equal seeds.  Exit code 1 if anything
regressed or an exact count differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = (
    "net.messages_per_cell",
    "net.bytes_per_cell",
    "sim.sim_time_s",
    "core.worker_iters",
    "service.fsyncs_per_cell",
    "service.cache_hit_ratio",
    "service.retries",
    "service.run_failures",
    "service.shed",
)


def load(path: str):
    """``{(workload, metric): {seed: value}}`` for each trace mode."""
    tables = {0: defaultdict(dict), 1: defaultdict(dict)}
    for run in json.loads(Path(path).read_text())["runs"]:
        for name, entry in run["metrics"].items():
            tables[run["trace"]][(run["workload"], name)][run["seed"]] = entry[
                "value"
            ]
    return tables


def spread(values) -> float | None:
    if len(values) < 4:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a, b, better: str, bound: float) -> str:
    """``a`` and ``b`` are the two sides' values of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (statistics.median(b) / statistics.median(a) - 1.0)
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "improved" if all_better else "unresolved"
    return "regressed" if worse_by > bound else "within-bound"


def percent(value) -> str:
    return "    -" if value is None else f"{100 * value:5.1f}%"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = load(argv[0]), load(argv[1])
    bad = False

    print(f"A = {argv[0]}\nB = {argv[1]}\n")
    print(
        f"{'workload':14s} {'metric':12s} {'A median':>11s} {'B median':>11s} "
        f"{'B/A':>7s} {'sprd A':>6s} {'sprd B':>6s} {'bound':>6s}  verdict"
    )
    for metric in benchmark["end_to_end"]:
        for workload in [w["name"] for w in benchmark["workloads"]]:
            key = (workload, metric["name"])
            a = list(side_a[0].get(key, {}).values())
            b = list(side_b[0].get(key, {}).values())
            if not a or not b:
                continue
            outcome = verdict(a, b, metric["better"], metric["bound"])
            bad |= outcome == "regressed"
            identical = " (bit-identical!)" if a == b else ""
            print(
                f"{workload:14s} {metric['name']:12s} "
                f"{statistics.median(a):11.4f} {statistics.median(b):11.4f} "
                f"{statistics.median(b) / statistics.median(a):7.3f} "
                f"{percent(spread(a))} {percent(spread(b))} "
                f"{percent(metric['bound'])}  {outcome}{identical}"
            )

    layer_keys = sorted(set(side_a[1]) & set(side_b[1]))
    if layer_keys:
        print(f"\n{'workload':14s} {'per-layer metric':38s} "
              f"{'A median':>13s} {'B median':>13s} {'B/A':>7s}")
    for key in layer_keys:
        a, b = side_a[1][key], side_b[1][key]
        med_a = statistics.median(a.values())
        med_b = statistics.median(b.values())
        note = ""
        if key[1] in EXACT:
            shared = set(a) & set(b)
            same = all(a[seed] == b[seed] for seed in shared)
            note = "  identical" if same else "  EXACT COUNT DIFFERS"
            bad |= not same
        ratio = f"{med_b / med_a:7.3f}" if med_a else "      -"
        print(f"{key[0]:14s} {key[1]:38s} {med_a:13.6g} {med_b:13.6g} "
              f"{ratio}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
