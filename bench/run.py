#!/usr/bin/env python3
"""The repository benchmark: ``python3 bench/run.py``.

Prints every metric by name and unit, checks every result, and ends with one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 bench/run.py                       all four workloads, untraced
    python3 bench/run.py --workload svm-scale  one workload
    python3 bench/run.py --trace 1             the per-layer metrics instead
    python3 bench/run.py --quick               both, two passes each (<60 s)
    python3 bench/run.py --repeat 10 --out A.json   a set, for compare.py
    python3 bench/run.py --record-expected     rewrite bench/expected.json

Method, workloads and how to read the numbers: ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Before numpy loads (probe imports it): with the default two BLAS threads
# the CNN cell burned 3.8 s of CPU for 1.9 s of wall.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(CHILD_ENV)
# One CPU for the driver and everything it starts (children inherit it): the
# probe then runs on the CPU the op runs on, and nothing migrates.  Measured
# on service-cold, whose cells run in the pool's worker: the spread of
# cell_ms over ten runs fell from 5.0% to 1.6%.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

sys.path.insert(0, str(BENCH_DIR))
import probe  # noqa: E402

SETUP_REPEATS = 5
#: A traced run spends this share of ``--seconds`` on workload passes; the
#: layer measurements that follow take a fixed ~12 s.
TRACE_PASS_SHARE = 0.5
#: Passes recorded by --record-expected (service-cold pins its first five,
#: warm-up included; one timed pass covers every other workload).
RECORD_PASSES = {"service-cold": 4}
CHILD_LIMIT_SECONDS = 170.0


class BenchError(RuntimeError):
    pass


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def _read_event(process, wanted: str) -> dict:
    for line in process.stdout:
        if line.startswith("{"):
            record = json.loads(line)
            if record.get("event") == wanted:
                return record
    raise BenchError(
        f"child ended (exit {process.wait()}) before its {wanted!r} line"
    )


def run_child(mode, workload, seed, seconds, measure=True, passes=0, reps=3,
              inject=None):
    """Start one child.  Returns ``(set-up ratio sample, result or None)``.

    The set-up sample is the child's time to ready over the mean of a probe
    taken just before it started and one taken while it waits for ``go``.
    """
    OUT_DIR.mkdir(exist_ok=True)
    state = Path(tempfile.mkdtemp(prefix="state-", dir=OUT_DIR))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if inject:
        env["BENCH_INJECT"] = inject
    command = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
        "--passes", str(passes), "--reps", str(reps),
        "--state-dir", str(state),
    ]
    before = probe.probe()
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, text=True, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, start_new_session=True,
    )

    def kill_group():
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(CHILD_LIMIT_SECONDS, kill_group)
    watchdog.start()
    try:
        ready = _read_event(process, "ready")
        after = probe.probe()
        sample = probe.ratio(ready["t"] - started, before, after)
        process.stdin.write("go\n" if measure else "stop\n")
        process.stdin.flush()
        result = _read_event(process, "result") if measure else None
        if process.wait() != 0:
            raise BenchError(f"child exited with {process.returncode}")
        return sample, result
    finally:
        watchdog.cancel()
        kill_group()  # no-op after a clean exit; the pool's workers otherwise
        process.wait()
        process.stdout.close()
        process.stdin.close()
        shutil.rmtree(state, ignore_errors=True)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _record(result: dict, trace: int, metrics: dict, diagnostics: dict) -> dict:
    return {
        "workload": result["workload"],
        "seed": result["seed"],
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "metrics": metrics,
        "diagnostics": diagnostics,
    }


def untraced_run(workload, seed, seconds, quick=False) -> dict:
    """End-to-end metrics of one workload (tracing off)."""
    repeats = 1 if quick else SETUP_REPEATS
    samples = [
        run_child("run", workload, seed, seconds, measure=False)[0]
        for _ in range(repeats - 1)
    ]
    sample, result = run_child(
        "run", workload, seed, seconds, passes=2 if quick else 0
    )
    samples.append(sample)
    metrics = {
        "setup_s": probe.PROBE_REF_MS / 1e3 * statistics.median(samples),
        "cell_ms": result["cell_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return _record(result, 0, metrics, result["layer_metrics"])


def layer_run(quick=False) -> dict:
    """The workload-independent layer measurements (their own child)."""
    _, result = run_child("layers", "-", 0, 0, reps=1 if quick else 3)
    return result


def traced_run(workload, seed, seconds, layers, quick=False) -> dict:
    """Per-layer metrics of one workload: traced passes plus ``layers``.

    The cells of a served sweep run in the pool's worker, out of the
    tracer's sight, so a service workload reports no ``span.*`` shares of
    its own: it takes those of the same cells run in-process by ``layers``.
    """
    _, result = run_child(
        "trace", workload, seed, seconds * TRACE_PASS_SHARE,
        passes=2 if quick else 0,
    )
    metrics = {
        **layers["layer_metrics"],
        **layers["service_cell_spans"],
        **result["layer_metrics"],
    }
    return _record(result, 1, metrics, {})


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def with_units(run: dict, benchmark: dict) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    declared = benchmark["per_layer" if run["trace"] else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in run["metrics"]]
    if missing:
        raise BenchError(f"{run['workload']}: metrics not measured: {missing}")
    return {
        m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared
    }


def print_run(run: dict) -> None:
    kind = "per-layer (traced)" if run["trace"] else "end-to-end (untraced)"
    print(f"== {run['workload']}  seed {run['seed']}  {kind}")
    for name, entry in run["metrics"].items():
        print(f"  {name:42s} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in run["diagnostics"].items():
        if value is not None:
            print(f"  ({name:40s} {value:>16.6g})")
    print(
        f"  ops_attempted {run['attempted']}  ops_failed {run['failed']}  "
        f"correct {run['correct']}"
    )
    for problem in run["problems"]:
        print(f"  PROBLEM {problem}")
    sys.stdout.flush()


def record_expected(workloads, seconds: float) -> int:
    fingerprints = {}
    for workload in workloads:
        _, result = run_child(
            "record", workload, 0, seconds,
            passes=RECORD_PASSES.get(workload, 1),
        )
        if result["problems"]:
            raise BenchError(f"{workload}: {result['problems']}")
        fingerprints[workload] = result["fingerprints"]
        print(f"{workload}: {len(result['fingerprints'])} fingerprints")
    body = {"seed": 0, "fingerprints": fingerprints}
    (BENCH_DIR / "expected.json").write_text(
        json.dumps(body, indent=1, sort_keys=True) + "\n"
    )
    return 0


def main(argv=None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"])
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="two passes, traced and untraced, few repeats")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write every run to this JSON file")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    probe.probe()  # warm
    if args.record_expected:
        return record_expected(workloads, args.seconds)

    names = [args.workload] if args.workload else workloads
    modes = (0, 1) if args.quick else (args.trace,)
    layers = layer_run(args.quick) if 1 in modes else None
    runs = []
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            for mode in modes:
                if mode:
                    run = traced_run(name, seed, args.seconds, layers, args.quick)
                else:
                    run = untraced_run(name, seed, args.seconds, args.quick)
                run["metrics"] = with_units(run, benchmark)
                print_run(run)
                runs.append(run)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")

    single = len(runs) == 1
    final = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            (name if single else f"{run['workload']}:{run['seed']}:{name}"): entry
            for run in runs
            for name, entry in run["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        sys.exit(3)
