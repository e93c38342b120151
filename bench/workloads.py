"""The four benchmark workloads.

Each workload is a fixed ordered list of distinct ops.  ``prepare`` builds
an op's inputs (untimed) and returns the callable that is timed; ``inspect``
turns what it returned into one :class:`CellCheck` per experiment cell
(untimed).  The program sees only the generated specs: every spec seed is
derived from the workload seed.

Why these four (the one-line versions are in ``BENCHMARK.json``):

* ``cnn-hetero`` is the paper's Fig. 12-19 regime and lives in ``repro.ml``;
* ``svm-scale`` is the fig24 regime, where protocol logic, the event engine
  and the network layer do most of the work, and memory has something to say;
* ``service-cold`` is the service's write path and the only coverage of the
  other seven protocols, the membership plane and the compression plane;
* ``service-warm`` is the read path beside it, so a gain for one that costs
  the other shows.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import shutil
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import SkipConfig, backup_config, staleness_config
from repro.graphs import ring_based
from repro.harness.golden import BIPARTITE_PROTOCOLS, golden_fingerprint
from repro.harness.spec import (
    RANDOM_6X,
    ExperimentSpec,
    deterministic_straggler,
    run_spec,
)
from repro.harness.workloads import cnn_workload, svm_workload
from repro.protocols import registered_protocols
from repro.protocols.base import LIGHT_TRACE
from repro.protocols.registry import build_cluster
from repro.service import ExperimentService, ServiceClient, make_server

#: Op sizes, frozen.  Tuned once so that a pass takes under two seconds:
#: the run-time cap leaves about 20 s of measurement a run (see README).
CNN_ITERATIONS = 20
SERVICE_WORKERS = 16
SERVICE_ITERATIONS = 30
WARM_RESUBMITS = 8
#: Passes of ``service-cold`` (warm-up included) pinned in expected.json.
COLD_PINNED_PASSES = 5
#: Longest a sweep may take before the op counts as failed.
SWEEP_TIMEOUT_SECONDS = 60.0

SERVICE_COLUMNS: Dict[str, dict] = {
    "none": {},
    "random": {"scenario": {"family": "random", "params": {}}},
    # Scripted, not Poisson: drawn plans disconnect bipartite_ring(16) for
    # about one spec seed in 120 (adpsgd, momentum-tracking), and no op of
    # a benchmark workload may fail.  One permanent leave and two
    # leave/rejoin cycles still cross leave, rewire, rejoin, re-sync and
    # re-shard in all nine protocols.
    "churn": {
        "scenario": {
            "family": "churn",
            "params": {
                "leaves": {"13": 6},
                "cycles": {"9": [4, 9], "14": [10, 16]},
            },
        }
    },
    "topk": {"compression": {"scheme": "topk", "params": {"ratio": 0.1}}},
}


@dataclass
class CellCheck:
    """What one experiment cell produced, reduced to what is checked."""

    op: str
    key: str
    #: Key under which the fingerprint is pinned, or ``None`` (unpinned).
    pin: Optional[str]
    ok: bool
    digest: str
    messages: int
    megabytes: float
    sim_seconds: float
    iterations: int
    detail: str = ""


def fingerprint_digest(fingerprint: dict) -> str:
    body = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _finite(value) -> bool:
    return value is not None and math.isfinite(value)


# ----------------------------------------------------------------------
# Simulation workloads: one cell per op, driven through run_spec
# ----------------------------------------------------------------------
class SimWorkload:
    """Ops are ``run_spec`` calls on specs rebuilt fresh for every pass.

    A fresh ``ExperimentSpec`` carries no cached scenario, so nothing is
    reused between repeats of an op except the workload's dataset and the
    topology objects, which are inputs.
    """

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        if name == "cnn-hetero":
            workload = cnn_workload("paper")
            ring = ring_based(8)
            common = dict(
                workload=workload, topology=ring, max_iter=CNN_ITERATIONS
            )
            skip = backup_config(1, skip=SkipConfig())
            self._recipes = [
                ("standard", dict(common)),
                ("standard-random6x", dict(common, slowdown=RANDOM_6X)),
                (
                    "backup1-random6x",
                    dict(common, config=backup_config(1), slowdown=RANDOM_6X),
                ),
                (
                    "staleness5-random6x",
                    dict(common, config=staleness_config(5), slowdown=RANDOM_6X),
                ),
                (
                    "backup1-skip-straggler4x",
                    dict(
                        common,
                        config=skip,
                        slowdown=deterministic_straggler(0, 4.0),
                    ),
                ),
                (
                    "notify-ack-random6x",
                    dict(common, protocol="notify_ack", slowdown=RANDOM_6X),
                ),
            ]
        elif name == "svm-scale":
            workload = svm_workload("bench")
            common = dict(workload=workload, trace_channels=LIGHT_TRACE)
            self._recipes = [
                (
                    "hop-64",
                    dict(common, topology=ring_based(64), max_iter=40),
                ),
                (
                    "hop-1024",
                    dict(common, topology=ring_based(1024), max_iter=4),
                ),
                (
                    "hop-256",
                    dict(common, topology=ring_based(256), max_iter=10),
                ),
                (
                    "hop-256-backup1-random6x",
                    dict(
                        common,
                        topology=ring_based(256),
                        max_iter=10,
                        config=backup_config(1),
                        slowdown=RANDOM_6X,
                    ),
                ),
                (
                    "ps-async-128",
                    dict(
                        common,
                        topology=ring_based(128),
                        max_iter=40,
                        protocol="ps-async",
                    ),
                ),
            ]
        else:
            raise ValueError(f"not a simulation workload: {name!r}")
        self.op_names = [op for op, _ in self._recipes]
        self.cells_per_pass = len(self._recipes)
        # Set-up ends with the first cluster built; no run is included.
        build_cluster(self._spec(0))

    def _spec(self, index: int) -> ExperimentSpec:
        op, fields = self._recipes[index]
        return ExperimentSpec(
            name=f"{self.name}/{op}", seed=self.seed * 1000 + index, **fields
        )

    def prepare(self, index: int, pass_no: int) -> Callable[[], object]:
        spec = self._spec(index)
        return lambda: run_spec(spec)

    def inspect(self, index: int, pass_no: int, run) -> List[CellCheck]:
        op = self.op_names[index]
        complete = all(
            done == run.max_iter for done in run.iterations_completed
        )
        ok = complete and _finite(run.final_loss)
        return [
            CellCheck(
                op=op,
                key=op,
                pin=op,
                ok=ok,
                digest=fingerprint_digest(golden_fingerprint(run)),
                messages=int(run.messages_sent),
                megabytes=float(run.bytes_sent),
                sim_seconds=float(run.wall_time),
                iterations=int(sum(run.iterations_completed)),
                detail="" if ok else "incomplete or non-finite loss",
            )
        ]

    def finish(self) -> List[str]:
        return []

    def layer_counters(self, fsyncs_per_cell: float) -> dict:
        return {}  # no service in this workload

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Service workloads: nine-cell sweeps over HTTP, closed loop, one client
# ----------------------------------------------------------------------
def service_payload(column: str, protocol: str, seed: int) -> dict:
    payload = {
        "protocol": protocol,
        "workers": SERVICE_WORKERS,
        "max_iter": SERVICE_ITERATIONS,
        "seed": seed,
        **SERVICE_COLUMNS[column],
    }
    if protocol in BIPARTITE_PROTOCOLS:
        payload["graph"] = "bipartite_ring"
    if protocol == "ps-ssp":
        payload["ps_staleness"] = 2
    return payload


def service_sweep(column: str, base_seed: int) -> List[dict]:
    """One cell per registered protocol; seeds ``base_seed + index``."""
    first = list(SERVICE_COLUMNS).index(column) * len(registered_protocols())
    return [
        service_payload(column, protocol, base_seed + first + offset)
        for offset, protocol in enumerate(registered_protocols())
    ]


class ServiceWorkload:
    """An in-process ``ExperimentService`` behind a real HTTP server.

    ``service-cold`` submits four sweeps a pass with seeds no pass has used
    (``seed*1000 + pass*64 + index``), so every cell is a miss.
    ``service-warm`` computes its four sweeps during set-up and then only
    re-submits them, so every cell is a hit.
    """

    ZERO_COUNTERS = ("retries", "run_failures", "shed", "worker_crashes")

    def __init__(self, name: str, seed: int, state_dir) -> None:
        if name not in ("service-cold", "service-warm"):
            raise ValueError(f"not a service workload: {name!r}")
        self.name = name
        self.seed = seed
        self.warm = name == "service-warm"
        self.op_names = list(SERVICE_COLUMNS)
        sweep_cells = len(registered_protocols())
        resubmits = WARM_RESUBMITS if self.warm else 1
        self.cells_per_pass = len(self.op_names) * sweep_cells * resubmits
        self.state_dir = state_dir
        self.service = ExperimentService(state_dir, pool_workers=1)
        self.server = make_server(self.service, port=0)
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()
        port = self.server.server_address[1]
        self.client = ServiceClient(f"http://127.0.0.1:{port}")
        self._reads = 0  # our own /result reads; each is a cache hit
        self._submitted = 0
        # The pool forks its worker on first use: one throwaway cell
        # brings it up, so that set-up and not the first op pays for it.
        self.sweep(
            [{"workers": 4, "max_iter": 1, "seed": self.seed * 1000 + 999}]
        )
        if self.warm:
            for column in self.op_names:
                self.sweep(service_sweep(column, self.seed * 1000))
        self._baseline = self.client.stats()
        self._submitted = 0

    def sweep(self, specs: Sequence[dict]) -> dict:
        """Submit over HTTP, wait for completion, fetch the snapshot.

        Completion is awaited on the sweep's own ``finished`` event, not by
        polling ``GET /sweep``, so that the op is the program's work and
        not the client's.  Measured: a cold cell read 49 ms with a client
        polling every 2 ms (its handler threads compete with the
        scheduler's inside one interpreter), 33 ms awaited, 30 ms
        in-process; ``wait_for_sweep``'s default 0.2 s poll is longer than
        a whole sweep.
        """
        ticket = self.client.submit(list(specs))
        self._submitted += len(specs)
        state = self.service.scheduler.sweep(ticket["sweep_id"])
        if not state.finished.wait(SWEEP_TIMEOUT_SECONDS):
            raise TimeoutError(f"sweep {ticket['sweep_id']} did not finish")
        return self.client.sweep(ticket["sweep_id"])

    def prepare(self, index: int, pass_no: int) -> Callable[[], object]:
        column = self.op_names[index]
        if self.warm:
            specs = service_sweep(column, self.seed * 1000)
            return lambda: [self.sweep(specs) for _ in range(WARM_RESUBMITS)]
        specs = service_sweep(column, self.seed * 1000 + pass_no * 64)
        return lambda: [self.sweep(specs)]

    def inspect(self, index: int, pass_no: int, snapshots) -> List[CellCheck]:
        column = self.op_names[index]
        protocols = registered_protocols()
        status_ok = all(
            snapshot["complete"]
            and not snapshot["failed"]
            and len(snapshot["cells"]) == len(protocols)
            and all(
                cell["status"] == "done" and cell["cache_hit"] == self.warm
                for cell in snapshot["cells"].values()
            )
            for snapshot in snapshots
        )
        pinned = self.warm or pass_no < COLD_PINNED_PASSES
        checks = []
        for protocol, digest in zip(protocols, self._hashes(column, pass_no)):
            entry = self.client.result(digest)
            self._reads += 1
            result = entry["result"]
            done = result["iterations_completed"]
            ok = (
                status_ok
                and _finite(result["final_loss"])
                and len(done) == SERVICE_WORKERS
                # Under churn a leaver legitimately stops early.
                and (column == "churn" or set(done) == {SERVICE_ITERATIONS})
            )
            key = f"{column}/{protocol}"
            if not self.warm:
                key = f"pass{pass_no}/{key}"
            checks.append(
                CellCheck(
                    op=column,
                    key=key,
                    pin=key if pinned else None,
                    ok=ok,
                    digest=fingerprint_digest(entry["fingerprint"]),
                    messages=int(result["messages_sent"]),
                    megabytes=float(result["bytes_sent"]),
                    sim_seconds=float(result["wall_time"]),
                    iterations=int(sum(result["iterations_completed"])),
                    detail="" if ok else "sweep or cell not clean",
                )
            )
        return checks

    def _hashes(self, column: str, pass_no: int) -> List[str]:
        from repro.service import spec_hash

        base = self.seed * 1000 + (0 if self.warm else pass_no * 64)
        return [spec_hash(spec) for spec in service_sweep(column, base)]

    def service_stats(self) -> dict:
        """Counters since set-up, with our own verification reads removed."""
        stats = self.client.stats()
        base = self._baseline
        hits = stats["cache"]["hits"] - base["cache"]["hits"] - self._reads
        misses = stats["cache"]["misses"] - base["cache"]["misses"]
        delta = {
            key: stats[key] - base[key]
            for key in ("runs_computed",) + self.ZERO_COUNTERS
        }
        delta.update(
            cache_hits=hits, cache_misses=misses, submitted=self._submitted
        )
        return delta

    def layer_counters(self, fsyncs_per_cell: float) -> dict:
        """The ``service.*`` per-layer counters of this session."""
        stats = self.service_stats()
        reads = stats["cache_hits"] + stats["cache_misses"]
        return {
            "service.cache_hit_ratio": (
                stats["cache_hits"] / reads if reads else 0.0
            ),
            "service.retries": stats["retries"],
            "service.run_failures": stats["run_failures"],
            "service.shed": stats["shed"],
            "service.fsyncs_per_cell": fsyncs_per_cell,
        }

    def finish(self) -> List[str]:
        """The counter checks; returns what is wrong (empty when clean)."""
        stats = self.service_stats()
        problems = [
            f"{key}={stats[key]}" for key in self.ZERO_COUNTERS if stats[key]
        ]
        if self.warm:
            if stats["runs_computed"] or stats["cache_misses"]:
                problems.append(
                    f"warm section computed {stats['runs_computed']} runs, "
                    f"missed {stats['cache_misses']}"
                )
        else:
            if stats["runs_computed"] != stats["submitted"]:
                problems.append(
                    f"runs_computed={stats['runs_computed']} but "
                    f"{stats['submitted']} cells submitted"
                )
            if stats["cache_hits"]:
                problems.append(f"cold section hit {stats['cache_hits']}")
        return problems

    def close(self) -> None:
        self.service.shutdown()
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(10)
        for process in multiprocessing.active_children():
            process.join(10)
            if process.is_alive():
                process.kill()
                process.join()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def make_workload(name: str, seed: int, state_dir):
    if name in ("cnn-hetero", "svm-scale"):
        return SimWorkload(name, seed)
    return ServiceWorkload(name, seed, state_dir)
