"""Serialization of run results and figure artifacts.

Training runs hold numpy arrays and tracers; this module flattens them
to plain JSON for archiving, diffing across reproductions, and loading
into external plotting tools.

It also owns the repository's one crash-safe persistence primitive:
:func:`atomic_write_text` / :func:`atomic_write_json` stage the payload
in a same-directory temp file, fsync it, and ``os.replace`` it into
place — so a reader can never observe a torn half-written artifact, no
matter when the writer dies.  Every JSON result writer in the repo
(run summaries, golden stats, bench baselines, traces, the service's
result cache) goes through it; the ``io-atomic-write`` lint rule
rejects bare ``json.dump(open(...))`` / ``write_text(json.dumps(...))``
persistence that would reintroduce the torn-write hazard.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Union

import numpy as np

from repro.protocols.base import TrainingRun
from repro.harness.study import FigureResult
from repro.harness.results import binned_loss_curve


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Crash-safe file write: temp file + fsync + atomic rename.

    The temp file lives in the destination directory (``os.replace``
    must not cross filesystems), so a crash at any point leaves either
    the old content or the new content — never a torn mix, never a
    truncated tail.  Returns the path written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w") as tmp:
            tmp.write(text)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(
    path: Union[str, Path],
    payload,
    indent: int = 2,
    sort_keys: bool = False,
) -> Path:
    """:func:`atomic_write_text` for a JSON payload (trailing newline)."""
    return atomic_write_text(
        path, json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    )


def run_to_dict(run: TrainingRun, curve_bins: int = 40) -> dict:
    """A JSON-safe summary of a training run (curves included)."""
    times, losses = binned_loss_curve(run, n_bins=curve_bins)
    return {
        "protocol": run.protocol,
        "config": run.config_description,
        "topology": run.topology_name,
        "n_workers": run.n_workers,
        "max_iter": run.max_iter,
        "wall_time": run.wall_time,
        "iteration_rate": run.iteration_rate(),
        "iterations_completed": list(map(int, run.iterations_completed)),
        "iterations_skipped": list(map(int, run.iterations_skipped)),
        "messages_sent": int(run.messages_sent),
        "bytes_sent": float(run.bytes_sent),
        "bytes_dropped": float(run.bytes_dropped),
        "control_bytes": float(run.control_bytes),
        "bytes_retransmitted": float(run.bytes_retransmitted),
        "bytes_attempted": float(run.bytes_attempted),
        "messages_dropped": int(run.messages_dropped),
        "fault_events": [dict(event) for event in run.fault_events],
        "membership_events": [
            {key: _jsonify(value) for key, value in event.items()}
            for event in run.membership_events
        ],
        "max_gap": run.gap.max_observed(),
        "final_loss": run.final_loss,
        "final_accuracy": run.final_accuracy,
        "consensus": run.consensus,
        "loss_curve": {
            "times": [float(t) for t in times],
            "losses": [float(v) for v in losses],
        },
        "worker_stats": [
            {key: _jsonify(value) for key, value in stats.items()}
            for stats in run.worker_stats
        ],
    }


def _jsonify(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _finite_or_none(value):
    """Strict JSON has no NaN or Infinity: a non-finite float is null."""
    value = _jsonify(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def figure_to_dict(result: FigureResult) -> dict:
    """A strict-JSON dump of a figure reproduction (non-finite -> null)."""
    return {
        "figure_id": result.figure_id,
        "title": result.title,
        "rows": [
            {key: _finite_or_none(value) for key, value in row.items()}
            for row in result.rows
        ],
        "series": {
            label: {
                "x": [_finite_or_none(float(v)) for v in xs],
                "y": [_finite_or_none(float(v)) for v in ys],
            }
            for label, (xs, ys) in result.series.items()
        },
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in result.checks
        ],
        "passed": result.passed(),
        "notes": result.notes,
    }


def save_figure(result: FigureResult, path: Union[str, Path]) -> Path:
    """Write a figure reproduction (JSON) next to its text render."""
    return atomic_write_json(path, figure_to_dict(result))
