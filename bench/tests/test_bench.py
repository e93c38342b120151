"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``.

Not part of the tier-1 ``testpaths``; the ``--quick`` test runs every
workload twice (traced and untraced) and takes most of a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402


def test_probe_imports_nothing_from_repro():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import probe; "
        "bad = [m for m in sys.modules if m.split('.')[0] == 'repro']; "
        "sys.exit(1 if bad else 0)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", code, str(BENCH)]
    assert subprocess.run(command, env=env).returncode == 0


def test_probe_work_is_deterministic():
    assert probe.probe_work() == probe.probe_work()
    assert probe.probe() > 0.0


def synthetic_pass(op_seconds, probe_seconds, machine=1.0):
    """Ratio samples of ops measured on a machine ``machine`` times slower."""
    return [
        [
            probe.ratio(
                seconds * machine, probe_seconds * machine, probe_seconds * machine
            )
        ]
        for seconds in op_seconds
    ]


def test_uniform_machine_slowdown_leaves_the_estimate_unchanged():
    ops = [0.31, 0.52, 0.27]
    base = probe.normalised_ms(synthetic_pass(ops, 0.025))
    slow = probe.normalised_ms(synthetic_pass(ops, 0.025, machine=1.5))
    assert slow == pytest.approx(base, rel=1e-12)
    # ... and it reads as milliseconds at reference probe speed.
    assert base == pytest.approx(1e3 * sum(ops) * (0.020 / 0.025))


def test_op_slowdown_moves_the_estimate_by_as_much():
    ops = [0.31, 0.52, 0.27]
    base = probe.normalised_ms(synthetic_pass(ops, 0.025))
    slowed = probe.normalised_ms(synthetic_pass([1.2 * s for s in ops], 0.025))
    assert slowed / base == pytest.approx(1.2)


def test_estimate_is_the_median_over_passes():
    samples = [[1.0, 9.0, 1.1], [2.0, 2.2, 50.0]]  # one outlier pass each
    assert probe.normalised_ms(samples) == pytest.approx(
        probe.PROBE_REF_MS * (1.1 + 2.2)
    )


def test_child_refuses_a_copy_of_repro_outside_the_tree(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "__init__.py").write_text("")
    completed = subprocess.run(
        [
            sys.executable, str(BENCH / "child.py"), "--workload", "cnn-hetero",
            "--seed", "0", "--seconds", "1", "--mode", "run",
            "--state-dir", str(tmp_path / "state"),
        ],
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    assert completed.returncode != 0
    assert "refusing to run" in completed.stderr
    assert "ready" not in completed.stdout


def test_quick_run_emits_every_named_metric(tmp_path):
    out = tmp_path / "quick.json"
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    final = json.loads(completed.stdout.splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = json.loads(out.read_text())["runs"]
    seen = {(run["workload"], run["trace"]) for run in runs}
    names = [w["name"] for w in benchmark["workloads"]]
    assert seen == {(name, trace) for name in names for trace in (0, 1)}
    for run in runs:
        declared = benchmark["per_layer" if run["trace"] else "end_to_end"]
        assert list(run["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            entry = run["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
        assert run["failed"] == 0 and run["correct"]
        if not run["trace"]:
            assert all(e["value"] > 0 for e in run["metrics"].values())
    assert (BENCH / "out" / "trace.json").is_file()
