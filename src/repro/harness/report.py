"""Plain-text rendering of tables and curves for the bench harness.

The benchmarks print the same rows/series the paper's figures plot, in
ASCII, so ``pytest benchmarks/ --benchmark-only -s`` regenerates the
evaluation in a terminal.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def format_value(value: object, precision: int = 3) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            return "-"
        if value != 0 and (abs(value) >= 1e4 or abs(value) < 1e-3):
            return f"{value:.{precision}g}"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(rows: Sequence[dict], title: Optional[str] = None) -> str:
    """Render dict-rows as an aligned ASCII table (union of keys)."""
    if not rows:
        return f"{title or 'table'}: (empty)"
    headers: List[str] = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    cells = [
        [format_value(row.get(header, "-")) for header in headers]
        for row in rows
    ]
    widths = [
        max(len(header), *(len(row[i]) for row in cells))
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series_table(
    series: Dict[str, Tuple[np.ndarray, np.ndarray]],
    n_points: int = 10,
    x_name: str = "time",
    y_name: str = "loss",
) -> str:
    """Downsampled numeric columns for several labeled curves."""
    lines = []
    for label, (xs, ys) in series.items():
        xs, ys = np.asarray(xs, float), np.asarray(ys, float)
        if xs.size == 0:
            lines.append(f"{label}: (no data)")
            continue
        idx = np.linspace(0, xs.size - 1, min(n_points, xs.size)).astype(int)
        pairs = "  ".join(f"({xs[i]:.2f}, {ys[i]:.3f})" for i in idx)
        lines.append(f"{label} [{x_name}, {y_name}]: {pairs}")
    return "\n".join(lines)


def render_check(name: str, passed: bool, detail: str = "") -> str:
    status = "PASS" if passed else "FAIL"
    suffix = f" — {detail}" if detail else ""
    return f"  [{status}] {name}{suffix}"
