"""Span tracing from outside the program.

``SpanTracer`` wraps a fixed list of the program's public entry points
(one per layer boundary) with functions that record a span: name, start,
end, the span that was open when it started, and the id of the benchmark
op it belongs to.  Nothing under ``src/`` knows it is traced; spans inside
the program are a later change.  Spans stay in memory and are written out
once, at exit.  A layer's *self time* is its span minus the part of it
covered by its direct children.

Wrappers are installed and removed between passes, so traced and untraced
passes of the same ops alternate in one process and their ratio is the
tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: (module, attribute path, span name).  A function imported by name into
#: a second module is listed once per module that holds a reference.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.protocols.registry", "build_cluster", "harness.build_cluster"),
    ("repro.harness.spec", "build_cluster", "harness.build_cluster"),
    ("repro.protocols.base", "ProtocolCluster.run", "harness.cluster_run"),
    ("repro.sim.engine", "Environment.run", "sim.run"),
    ("repro.ml.models", "Model.loss_and_grad", "ml.step"),
    ("repro.ml.models", "Model.evaluate", "ml.eval"),
    ("repro.net.network", "Network.send", "net.send"),
    ("repro.net.network", "Network.push", "net.push"),
    ("repro.service.runner", "execute_cell", "service.execute_cell"),
    ("repro.service.scheduler", "execute_cell", "service.execute_cell"),
    ("repro.service.cache", "ResultCache.get", "service.cache_get"),
    ("repro.service.cache", "ResultCache.put", "service.cache_put"),
    ("repro.service.journal", "RunJournal.append", "service.journal_append"),
    ("os", "fsync", "os.fsync"),
)


class SpanTracer:
    """In-memory span recorder; thread-aware (one open-span stack each)."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, op id]`` per span.
        self.spans: List[list] = []
        self.op_id = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name: str):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return traced

    # -- install / remove ----------------------------------------------
    def install(self) -> None:
        if self._installed:
            return
        wrapped: Dict[int, object] = {}
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
            # One wrapper per function, however many modules name it:
            # pickling a pool task looks the function up by module path
            # and insists on finding the very same object there.
            wrapper = wrapped.setdefault(
                id(original), self._wrap(original, name)
            )
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def totals(
        self,
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """``(total seconds, self seconds, count)`` per span name."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        count: Dict[str, int] = defaultdict(int)
        for offset, (name, start, end, _, _) in enumerate(spans):
            duration = end - start
            total[name] += duration
            self_time[name] += duration - child_time[offset]
            count[name] += 1
        return dict(total), dict(self_time), dict(count)

    def shares(self) -> Dict[str, float]:
        """Self-time shares of the traced ops (they sum to 1).

        ``op`` is the span the benchmark opens around each timed op;
        ``harness.cluster_run``'s own time is model replication, process
        start and run packaging, so it counts as build.
        """
        total, self_time, _ = self.totals()
        whole = total.get("op", 0.0)
        if whole <= 0.0:
            raise ValueError("no op spans recorded")

        def part(*names: str) -> float:
            return sum(self_time.get(name, 0.0) for name in names) / whole

        return {
            "span.harness_build_share": part(
                "harness.build_cluster", "harness.cluster_run"
            ),
            "span.ml_share": part("ml.step"),
            "span.net_share": part("net.send", "net.push"),
            "span.sim_core_self_share": part("sim.run"),
            "span.eval_share": part("ml.eval"),
            "span.pack_share": part("op", "service.execute_cell"),
        }

    def dump(self, path, extra: Optional[dict] = None) -> None:
        payload = {
            "format": "bench.spans/v1",
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
        }
        payload.update(extra or {})
        with open(path, "w") as handle:
            json.dump(payload, handle)
