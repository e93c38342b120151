"""One workload in one fresh interpreter; started by ``run.py`` only.

Protocol with the parent, over stdout/stdin, one JSON object per line:

1. set-up (imports, dataset build, first ``build_cluster``; for the service
   workloads server and pool up, and the cache filled for ``service-warm``),
   then ``{"event": "ready", "t": <perf_counter>}``.  ``perf_counter`` is
   CLOCK_MONOTONIC on Linux, the same clock in parent and child, so the
   parent subtracts the time it took just before starting this process;
2. one line from the parent: ``go`` to measure, anything else to stop;
3. ``{"event": "result", ...}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: ``peak_rss_mb`` is the high-water mark after this timed pass (after the
#: last one in a shorter run).  The service keeps every sweep it has seen,
#: so a mark read at exit would grow with the number of passes, which is
#: set by the machine's speed that day.
RSS_PASS = 8


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def check_tree() -> None:
    """Refuse to measure an installed copy of the program."""
    import repro

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(
            f"refusing to run: repro was imported from {origin}, "
            f"which is outside {ROOT / 'src'}"
        )


def run_pass(workload, bracket, pass_no, tracer=None, timed=True):
    """All ops once, in order.  Returns ``(checks, wall seconds)``.

    An op that raises is a failed op, not a failed benchmark.
    """
    from workloads import CellCheck

    checks = []
    start = time.perf_counter()
    for index, op in enumerate(workload.op_names):
        call = workload.prepare(index, pass_no)
        if tracer is not None:
            tracer.op_id = f"pass{pass_no}/{op}"
            inner = call

            def call(inner=inner):
                span = tracer.begin("op")
                try:
                    return inner()
                finally:
                    tracer.end(span)

        try:
            if timed:
                outcome = bracket.time(op, call)
            else:
                gc.collect()
                outcome = call()
            checks.extend(workload.inspect(index, pass_no, outcome))
        except Exception as error:  # the program's failure, whatever it is
            checks.append(
                CellCheck(
                    op=op, key=op, pin=None, ok=False, digest="", messages=0,
                    megabytes=0.0, sim_seconds=0.0, iterations=0,
                    detail=f"{type(error).__name__}: {error}",
                )
            )
    return checks, time.perf_counter() - start


class Verdicts:
    """Counts ops and compares fingerprints with their reference.

    The reference is ``expected.json`` for the default seed; for any other
    seed it is the same cell's fingerprint in the warm-up pass.
    """

    def __init__(self, workload_name: str, seed: int, recording: bool) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.observed: dict = {}
        self.reference = None
        if seed == 0 and not recording:
            expected = json.loads((BENCH_DIR / "expected.json").read_text())
            self.reference = expected["fingerprints"].get(workload_name, {})

    def add_pass(self, checks, n_ops: int) -> None:
        reference = self.observed if self.reference is None else self.reference
        failed_ops = set()
        for check in checks:
            problem = check.detail if not check.ok else ""
            if not problem and check.pin is not None:
                wanted = reference.get(check.pin)
                if self.reference is not None and wanted is None:
                    problem = "no pinned fingerprint (run --record-expected)"
                elif wanted is not None and wanted != check.digest:
                    problem = "fingerprint differs from its reference"
            if check.pin is not None:
                self.observed.setdefault(check.pin, check.digest)
            if problem:
                failed_ops.add(check.op)
                self.problems.append(f"{check.key}: {problem}")
        self.attempted += n_ops
        self.failed += len(failed_ops)


def exact_counts(checks) -> dict:
    """Exact per-cell counts of one pass (they repeat bit for bit)."""
    cells = len(checks)
    return {
        "net.messages_per_cell": sum(c.messages for c in checks) / cells,
        "net.bytes_per_cell": sum(c.megabytes for c in checks) / cells,
        "sim.sim_time_s": sum(c.sim_seconds for c in checks) / cells,
        "core.worker_iters": sum(c.iterations for c in checks),
    }


def apply_injection(spec: str) -> None:
    """``selfcheck.py``'s slowdowns: ``ml_step:<share>`` busy-waits that
    share of each ``Model.loss_and_grad`` call; ``journal:<seconds>`` adds
    a busy-wait to each ``RunJournal.append``."""
    kind, _, amount = spec.partition(":")
    amount = float(amount)

    def spin(seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    if kind == "ml_step":
        from repro.ml.models import Model

        original = Model.loss_and_grad

        def slowed(self, *args, **kwargs):
            start = time.perf_counter()
            result = original(self, *args, **kwargs)
            spin(amount * (time.perf_counter() - start))
            return result

        Model.loss_and_grad = slowed
    elif kind == "journal":
        from repro.service.journal import RunJournal

        original = RunJournal.append

        def slowed(self, record):
            spin(amount)
            return original(self, record)

        RunJournal.append = slowed
    else:
        raise SystemExit(f"unknown injection {spec!r}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("run", "trace", "record", "layers"), required=True
    )
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--state-dir", required=True)
    args = parser.parse_args()

    check_tree()
    if args.mode == "layers":
        import layers

        emit({"event": "ready", "t": time.perf_counter()})
        if sys.stdin.readline().strip() != "go":
            return 0
        emit({"event": "result", **layers.measure(args.state_dir, args.reps)})
        return 0

    import workloads
    from trace import SpanTracer

    injection = os.environ.get("BENCH_INJECT")
    if injection:
        apply_injection(injection)
    workload = workloads.make_workload(
        args.workload, args.seed, args.state_dir
    )
    try:
        emit({"event": "ready", "t": time.perf_counter()})
        if sys.stdin.readline().strip() != "go":
            return 0
        tracer = SpanTracer() if args.mode == "trace" else None
        emit({"event": "result", **measure(args, workload, tracer)})
    finally:
        workload.close()
    return 0


def measure(args, workload, tracer) -> dict:
    n_ops = len(workload.op_names)
    cells = workload.cells_per_pass
    verdicts = Verdicts(args.workload, args.seed, args.mode == "record")

    probe.probe()  # first call pays numpy's lazy set-up
    plain, traced = probe.Bracketed(), probe.Bracketed()

    # Warm-up pass: untimed, but checked, and the reference for seeds
    # other than 0.
    checks, _ = run_pass(workload, plain, 0, timed=False)
    verdicts.add_pass(checks, n_ops)
    counts = exact_counts(checks)

    pass_walls = []
    pass_no = 0
    peak_kb = None
    started = time.perf_counter()
    while True:
        pass_no += 1
        use_tracer = tracer is not None and pass_no % 2 == 0
        bracket = traced if use_tracer else plain
        bracket.break_chain()
        if use_tracer:
            tracer.install()
        try:
            checks, wall = run_pass(
                workload, bracket, pass_no, tracer if use_tracer else None
            )
        finally:
            if use_tracer:
                tracer.uninstall()
        verdicts.add_pass(checks, n_ops)
        pass_walls.append(wall)
        if pass_no == RSS_PASS:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.passes:
            if pass_no >= args.passes:
                break
        else:
            used = time.perf_counter() - started
            if used + statistics.median(pass_walls) > args.seconds:
                break

    problems = list(verdicts.problems)
    counter_problems = workload.finish()
    problems.extend(counter_problems)

    ops = workload.op_names
    cell_ms = probe.normalised_ms([plain.ratios[op] for op in ops]) / cells
    raw_walls = [wall for op in ops for wall in plain.walls[op]]
    raw_pass = sum(statistics.median(plain.walls[op]) for op in ops)
    layer_metrics = {
        **counts,
        "timing.raw_cell_ms": 1e3 * raw_pass / cells,
        "timing.raw_op_p90_ms": 1e3 * probe.percentile(raw_walls, 0.9),
        "timing.samples": min(len(plain.ratios[op]) for op in ops),
        **{
            f"timing.{key}": value
            for key, value in plain.timing_diagnostics().items()
        },
    }
    if tracer is not None:
        layer_metrics.update(traced_metrics(workload, tracer, traced, cell_ms))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "correct": not problems,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed + (1 if counter_problems else 0),
        "problems": problems[:20],
        "cell_ms": cell_ms,
        "peak_rss_mb": (
            peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
        / 1024.0,
        "fingerprints": verdicts.observed,
        "layer_metrics": layer_metrics,
    }


def traced_metrics(workload, tracer, traced, cell_ms) -> dict:
    ops = workload.op_names
    cells = workload.cells_per_pass
    traced_cell_ms = (
        probe.normalised_ms([traced.ratios[op] for op in ops]) / cells
    )
    total, self_time, count = tracer.totals()
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(
        out_dir / "trace.json",
        {"workload": workload.name, "self_seconds_by_name": self_time},
    )
    metrics = {"timing.trace_overhead_ratio": traced_cell_ms / cell_ms}
    if "sim.run" in total:  # the simulation ran in this process
        metrics.update(tracer.shares())
    traced_cells = cells * len(traced.ratios[ops[0]])
    metrics.update(
        workload.layer_counters(count.get("os.fsync", 0) / traced_cells)
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
